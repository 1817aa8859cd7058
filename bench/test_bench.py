"""Tests of the benchmark itself: inputs, coverage, oracle, output shape.

Run from the repository root:  python -m pytest bench -q
The end-to-end tests use ``--smoke`` runs, which shrink every input.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from math import gcd
from pathlib import Path

import pytest

import oracle
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
LAYERS = ("rationals", "bp", "cyclic", "tables", "ltheory", "structset",
          "classify", "cli")


def bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, cwd=cwd, timeout=170)


def result_of(proc: subprocess.CompletedProcess) -> tuple[dict, dict]:
    assert proc.returncode == 0, proc.stderr
    *_, meta_line, result_line = proc.stdout.splitlines()
    return json.loads(meta_line)["meta"], json.loads(result_line)


@pytest.fixture(scope="module")
def traced() -> dict:
    return {w: result_of(bench(w, 1)) for w in workloads.WORKLOADS}


def test_same_seed_gives_same_inputs():
    for generate in (workloads.deep_sweep, workloads.classify_grid, workloads.cli_mix):
        assert generate(5) == generate(5)
        assert generate(5) != generate(6)


def test_cli_mix_covers_subcommands_table_and_error_paths():
    queries = workloads.cli_mix(1)[:100]  # fewer than any full-size run sends
    assert {q["cmd"] for q in queries if q["expect"] == 0} == set(workloads.SUBCOMMANDS)
    assert {q["expect"] for q in queries} == {0, 1, 2}
    assert any(q["table"] and q["json"] and q["cmd"] == "bp-order" for q in queries)
    smoke = workloads.cli_mix(1, smoke=True)
    assert {q["cmd"] for q in smoke if q["expect"] == 0} == set(workloads.SUBCOMMANDS)


def test_oracle_reproduces_shipped_guarantees():
    assert [oracle.t(i) for i in (4, 8, 12, 16, 20)] == [2, 28, 992, 8128, 261632]
    assert [oracle.residual_order(p, q) for p, q in ((4, 4), (4, 8), (4, 12), (8, 8))] \
        == [7, 31, 127, 127]
    for d in range(-30, 31):
        assert oracle.fiber_order(3, 4, d) == (28 if d % 7 == 0 else 4)
        assert oracle.fiber_order(4, 4, d) == 2
    for v in range(-30, 31):
        assert oracle.s3s4("s3s4_diffeomorphic", 0, v, 0, v) == [True, 14 // gcd(14, v)]
    assert oracle.expected(["plumbing_boundary_class", 1, 1]) == [28, 24]
    assert oracle.check_op(["t", 16], 8182) is not None
    assert oracle.check_op(["residual_group", 4, 4], 7) is None


def test_untraced_runs_print_every_end_to_end_metric():
    for workload in workloads.WORKLOADS:
        meta, result = result_of(bench(workload, 0))
        assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
        assert {name: m["unit"] for name, m in result["metrics"].items()} == \
            {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
        assert all(m["value"] > 0 for m in result["metrics"].values())
        assert meta["seed"] == 3 and meta["package_file"].startswith(str(ROOT / "src"))


def test_traced_runs_print_every_per_layer_metric(traced):
    for meta, result in traced.values():
        assert result["correct"]
        assert {name: m["unit"] for name, m in result["metrics"].items()} == \
            {m["name"]: m["unit"] for m in SPEC["per_layer"]}
        assert all(result["metrics"][f"{layer}.calls"]["value"] > 0 for layer in LAYERS)


def workload_layer_busy(meta: dict) -> dict:
    """Busy ns per layer from the workload's own spans (not the layer probe)."""
    busy: dict = {}
    with open(ROOT / meta["trace_file"], encoding="utf-8") as handle:
        next(handle)
        for line in handle:
            round_no, _, name, start, end, *_ = json.loads(line)
            layer = name.split(".", 1)[0]
            if round_no >= 0 and layer in LAYERS:
                busy[layer] = busy.get(layer, 0) + end - start
    return busy


def test_every_layer_is_called_by_some_workload_and_rationals_split(traced):
    busy = {w: workload_layer_busy(meta) for w, (meta, _) in traced.items()}
    assert set().union(*busy.values()) == set(LAYERS)
    for workload, layers in busy.items():
        share = layers.get("rationals", 0) / sum(layers.values())
        assert share > 0.5 if workload == "deep-sweep" else share < 0.01, (workload, share)


def test_a_tree_without_the_package_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench("cli-mix", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
