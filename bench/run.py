"""spherestruct benchmark: one run of one workload.

    python3 bench/run.py --workload deep-sweep --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout.  It measures the package in that
checkout's ``src/`` and nothing else: every child interpreter gets
``src`` first on PYTHONPATH, and the run aborts (exit 1, no result) if
``spherestruct`` is imported from anywhere else or is missing.

Workloads (see README.md): ``cli-mix`` spawns ``python -m
spherestruct.cli`` twice per query; ``deep-sweep`` and ``classify-grid``
run rounds of library calls, each round in a fresh worker interpreter so
``lru_cache``s start cold.  All loops are closed: one client, the next
op sent when the previous one returns.

With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` it carries the per-layer metrics, computed from spans
that are also written to ``.bench_work/trace-<workload>-<seed>.jsonl``.
The line before the result stamps the run with machine and input data.
Every op result is checked against ``oracle.py`` after timing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import oracle
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
PY = sys.executable

LAYERS = ("rationals", "bp", "cyclic", "tables", "ltheory", "structset",
          "classify", "cli")
# Fresh interpreters timing the entry import, (full, smoke), taken both
# before and after the loop so that one slow spell does not set them all.
SETUP_PROBES = (8, 2)
CONTEXT_PROBES = (5, 2)  # floor and CLI-spawn samples in a traced run
TRACE_PAIRS = (3, 1)  # untraced/traced round pairs in a traced library run
RUN_LIMIT_S = 170  # a run must end within 180 s
START = time.monotonic()


class BenchError(Exception):
    """The run cannot measure this checkout; no result is printed."""


def child_env() -> dict:
    """The caller's environment without Python settings (such as
    PYTHONDONTWRITEBYTECODE, which would make every child compile the
    package again) and without a table override."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("PYTHON") and k != "SURGERY_TABLE"}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


ENV = child_env()


def run_child(args: list[str], stdin: str | None = None) -> str:
    """Run a child interpreter in its own process group.  If the run's time
    limit passes, the whole group (the child and anything it spawned) is
    killed and waited for."""
    proc = subprocess.Popen([PY, *args], stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, env=ENV, cwd=ROOT,
                            start_new_session=True)
    try:
        out, err = proc.communicate(stdin, timeout=max(1.0, RUN_LIMIT_S - time.monotonic() + START))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{args[:2]} was still running at the {RUN_LIMIT_S} s limit") from None
    finally:
        if proc.returncode is None:  # timed out, or this run was interrupted
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
    if proc.returncode != 0:
        raise BenchError(f"{args[:2]} exited {proc.returncode}: {err.strip()[-800:]}")
    return out


def check_package_file(path: str) -> None:
    if not Path(path).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"spherestruct was imported from {path}, not from {SRC}")


def warm_up(entry: str) -> str:
    """Untimed first import, which also writes the bytecode caches."""
    if not (SRC / "spherestruct").is_dir():
        raise BenchError(f"no package at {SRC / 'spherestruct'}")
    path = run_child(["-c", f"import {entry}, spherestruct; print(spherestruct.__file__)"]).strip()
    check_package_file(path)
    run_child([str(BENCH / "worker.py")],
              json.dumps({"ops": [], "warmup": False, "passes": 0, "trace": False}))
    return path


def import_times(entry: str, n: int) -> list[float]:
    code = (f"import time; s = time.perf_counter(); import {entry}; "
            "print(time.perf_counter() - s)")
    return [float(run_child(["-c", code])) for _ in range(n)]


def floor_ms(n: int) -> float:
    samples = []
    for _ in range(n):
        start = time.perf_counter_ns()
        run_child(["-c", "pass"])
        samples.append((time.perf_counter_ns() - start) / 1e6)
    return statistics.median(samples)


def run_worker(ops: list, warmup: bool, passes: int, trace: bool) -> dict:
    job = {"ops": ops, "warmup": warmup, "passes": passes, "trace": trace,
           "table_path": workloads.TABLE_PATH}
    report = json.loads(run_child([str(BENCH / "worker.py")], json.dumps(job)))
    check_package_file(report["file"])
    return report


def run_cli(argvs: list[list[str]], seconds: float | None, trace: bool, passes: int) -> dict:
    job = {"argvs": argvs, "seconds": seconds, "trace": trace,
           "block": workloads.CLI_BLOCK, "passes": passes}
    return json.loads(run_child([str(BENCH / "clidriver.py")], json.dumps(job)))


def percentile(values: list, q: int):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, -(-len(ordered) * q // 100) - 1)]


class Run:
    """Counts, spans and samples gathered by one run."""

    def __init__(self, workload: str, seed: int, smoke: bool):
        self.workload, self.seed, self.smoke = workload, seed, smoke
        self.attempted = 0
        self.failures: list[str] = []
        self.spans: list[list] = []  # [round, id, name, start, end, parent, op, ok]
        self.walls = {False: 0.0, True: 0.0}  # loop wall by traced flag
        self.spawn_ms: list[float] = []  # CLI subprocess latencies

    def fail(self, message: str, times: int = 1) -> None:
        self.failures.extend([message] * times)

    def add_spans(self, round_no: int, report: dict) -> None:
        names = report["span_names"]
        self.spans.extend([round_no, i, names[s[0]], *s[1:]]
                          for i, s in enumerate(report["spans"]))

    def check_report(self, ops: list, report: dict, passes: int) -> None:
        self.attempted += report["ops"]
        for op, got in zip(ops, report["results"]):
            wrong = oracle.check_op(op, got)
            if wrong:
                self.fail(wrong, passes)
        if report["mismatches"]:
            self.fail(f"{report['mismatches']} results changed between passes",
                      report["mismatches"])

    def layer_metrics(self) -> dict:
        metrics = {}
        for layer in LAYERS:
            calls = [s for s in self.spans if s[2].split(".", 1)[0] == layer]
            durations = [s[4] - s[3] for s in calls]
            metrics.update({
                f"{layer}.calls": (len(calls), "count"),
                f"{layer}.busy_s": (sum(durations) / 1e9, "s"),
                f"{layer}.call_p50_us": (statistics.median(durations) / 1e3 if calls else 0.0, "us"),
                f"{layer}.call_max_us": (max(durations, default=0) / 1e3, "us"),
                f"{layer}.errors": (sum(not s[7] for s in calls), "count"),
            })
        return metrics

    def span_ms(self, name: str) -> list[float]:
        return [(s[4] - s[3]) / 1e6 for s in self.spans if s[2] == name]

    def write_trace(self, meta: dict) -> Path:
        path = WORK / f"trace-{self.workload}-{self.seed}.jsonl"
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"meta": meta, "fields": [
                "round", "id", "name", "start_ns", "end_ns", "parent", "op", "ok"]}) + "\n")
            for span in self.spans:
                handle.write(json.dumps(span, separators=(",", ":")) + "\n")
        return path


def library_run(run: Run, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Rounds of worker processes on the seed's op list until time is up.

    deep-sweep runs the list once per round, cold; classify-grid runs one
    untimed warm-up pass and then GRID_PASSES timed passes.  Each op's
    latency is the fastest of its timed runs in this run, as ``timeit``
    takes the best of its repeats: the machine's speed swings by a fifth
    within seconds under outside load, and the fastest run is the figure
    that repeats.  A traced run pairs each round with a traced twin.
    """
    deep = run.workload == "deep-sweep"
    ops = (workloads.deep_sweep if deep else workloads.classify_grid)(run.seed, run.smoke)
    warm, passes = (False, 1) if deep else (True, workloads.GRID_PASSES[run.smoke])
    deadline = time.perf_counter() + seconds
    best: list[int] = []
    rss = []
    rounds = 0
    while True:
        for traced in (False, True) if trace else (False,):
            report = run_worker(ops, warm, passes, traced)
            run.check_report(ops, report, passes)
            run.walls[traced] += report["wall_s"]
            if traced:
                run.add_spans(rounds, report)
            else:
                best = list(map(min, best, report["best_ns"])) if best else report["best_ns"]
                rss.append(report["rss_kb"] / 1024)
        rounds += 1
        if time.perf_counter() >= deadline or (trace and rounds >= TRACE_PAIRS[run.smoke]):
            break
    e2e = {
        "ops_per_s": len(best) / (sum(best) / 1e9),
        "latency_p50_ms": statistics.median(best) / 1e6,
        "latency_tail_ms": percentile(best, 99) / 1e6,
        "peak_rss_mb": statistics.median(rss),
    }
    return e2e, {"rounds": rounds, "ops": len(ops), "passes_per_round": passes,
                 "tail_percentile": 99}


def cli_run(run: Run, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Sequential CLI subprocesses over the seeded query list.

    Each block of queries is sent twice in a row, and a query's latency is
    the faster of its two runs, for the reason ``library_run`` gives.  A
    traced run sends each block twice more with spans, and then replays
    the queries in-process through ``main()``.
    """
    queries = workloads.cli_mix(run.seed, run.smoke)
    report = run_cli([q["argv"] for q in queries], seconds, trace, 2)
    best: dict[int, float] = {}
    for r in report["runs"]:
        run.attempted += 1
        run.walls[r["traced"]] += r["wall_ns"] / 1e9
        wrong = oracle.check_query(queries[r["op"]], r["code"], r["stdout"])
        if wrong:
            run.fail(wrong)
        if not r["traced"]:
            best[r["op"]] = min(best.get(r["op"], r["wall_ns"]), r["wall_ns"])
    run.spans.extend([0, i, f"op.{queries[op]['cmd']}", start, end, -1, op, code == 0]
                     for i, (start, end, op, code) in enumerate(report["spans"]))
    run.spawn_ms = [ns / 1e6 for ns in best.values()]
    e2e = {
        "ops_per_s": len(best) / (sum(best.values()) / 1e9),
        "latency_p50_ms": statistics.median(run.spawn_ms),
        "latency_tail_ms": percentile(run.spawn_ms, 90),
        "peak_rss_mb": max(r["rss_kb"] for r in report["runs"]) / 1024,
    }
    if trace:
        ops = [["main", queries[i]] for i in sorted(best)]
        main_report = run_worker(ops, False, 1, True)
        run.check_report(ops, main_report, 1)
        run.add_spans(1, main_report)
    return e2e, {"queries": len(best), "runs_per_query": 2, "tail_percentile": 90}


def context_metrics(run: Run, entry_import_s: float | None) -> dict:
    """Per-layer figures that need their own probes: a layer probe (one
    cheap call into every layer), the bare interpreter, the CLI import and
    the CLI spawn."""
    n = CONTEXT_PROBES[run.smoke]
    probe = workloads.LAYER_PROBE * workloads.LAYER_PROBE_REPEATS
    report = run_worker(probe, False, 1, True)
    run.check_report(probe, report, 1)
    run.add_spans(-1, report)
    main_p50 = statistics.median(run.span_ms("cli.main"))
    if not run.spawn_ms:
        argv = workloads.LAYER_PROBE[-1][1]["argv"]
        run.spawn_ms = [r["wall_ns"] / 1e6 for r in run_cli([argv] * n, None, False, 1)["runs"]]
    spawn_p50 = statistics.median(run.spawn_ms)
    import_s = entry_import_s or statistics.median(import_times("spherestruct.cli", n))
    return {
        "cli.import_s": (import_s, "s"),
        "cli.main_p50_ms": (main_p50, "ms"),
        "cli.spawn_overhead_ms": (spawn_p50 - main_p50, "ms"),
        "tables.load_table_ms": (statistics.median(run.span_ms("tables.load_table")), "ms"),
        "floor.python_start_ms": (floor_ms(n), "ms"),
        "trace.overhead_frac": (run.walls[True] / run.walls[False] - 1, "ratio"),
        "trace.wall_s": (run.walls[True], "s"),
    }


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="small inputs and few probes, for the benchmark's tests")
    args = parser.parse_args(argv)
    # Unwind on SIGTERM too, so run_child kills the child it is waiting on.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    run = Run(args.workload, args.seed, args.smoke)
    trace = bool(args.trace)
    entry = "spherestruct.cli" if args.workload == "cli-mix" else "spherestruct"
    try:
        WORK.mkdir(exist_ok=True)
        (WORK / "table.json").write_text(json.dumps(workloads.TABLE_OVERRIDE))
        package_file = warm_up(entry)
        setup = import_times(entry, SETUP_PROBES[args.smoke])
        if args.workload == "cli-mix":
            run_child(["-m", "spherestruct.cli", "t", "8"])  # first `-m` run, untimed
            e2e, sizes = cli_run(run, args.seconds, trace)
        else:
            e2e, sizes = library_run(run, args.seconds, trace)
        setup += import_times(entry, SETUP_PROBES[args.smoke])
        setup_s = statistics.median(setup)
        if trace:
            context = context_metrics(run, setup_s if entry == "spherestruct.cli" else None)
            metrics = {**run.layer_metrics(), **context}
        else:
            metrics = {
                "ops_per_s": (e2e["ops_per_s"], "1/s"),
                "latency_p50_ms": (e2e["latency_p50_ms"], "ms"),
                "latency_tail_ms": (e2e["latency_tail_ms"], "ms"),
                "setup_s": (setup_s, "s"),
                "peak_rss_mb": (e2e["peak_rss_mb"], "MB"),
            }
    except (BenchError, OSError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": trace, "smoke": args.smoke, "package_file": package_file,
        "cpu": cpu_model(), "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0], "executable": PY,
        "commit": git_commit(), "attempted": run.attempted,
        "setup_samples_s": setup, **sizes,
    }
    if trace:
        meta["trace_file"] = str(run.write_trace(meta).relative_to(ROOT))
    for message in run.failures[:20]:
        print(f"wrong: {message}", file=sys.stderr)
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
