"""One benchmark round in a fresh interpreter.

Reads a JSON job on stdin, imports the package from the checkout (the
parent puts ``src`` first on PYTHONPATH), runs the job's op list for the
requested number of passes and prints one JSON report on stdout.

Job keys: ``ops`` (op lists, see workloads.py), ``warmup`` (run one
untimed pass first, so caches are warm), ``passes`` (timed passes),
``trace`` (record spans), ``table_path`` (file for the load_table op).

Every op is timed on its own with ``perf_counter_ns``, and the report
gives each op's fastest timed run.  A pass's wall time excludes result
bookkeeping, which happens after the pass.
"""

import json
import resource
import sys
import time
from types import SimpleNamespace

import spherestruct
from ops import LIBRARY_NAMES, OPS, canonical


class Tracer:
    """Spans kept in memory as tuples (name, start_ns, end_ns, parent, op, ok).

    A span's id is its index in ``spans``; op spans have parent -1 and the
    layer calls made inside an op point at the op's span.
    """

    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []
        self.parent = -1
        self.op = -1

    def name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, name: str, fn):
        spans, pc, nid, tracer = self.spans, time.perf_counter_ns, self.name_id(name), self

        def traced(*args, **kwargs):
            start, ok = pc(), False
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                spans.append((nid, start, pc(), tracer.parent, tracer.op, ok))

        return traced


def library(cli: bool, table_path: str, tracer: Tracer | None) -> SimpleNamespace:
    fns = {name: getattr(spherestruct, name) for name in LIBRARY_NAMES}
    if cli:
        from spherestruct.cli import main

        fns["main"] = main
    if tracer is not None:
        fns = {name: tracer.wrap(f"{fn.__module__.rsplit('.', 1)[-1]}.{name}", fn)
               for name, fn in fns.items()}
    return SimpleNamespace(table_path=table_path, **fns)


class OpError:
    """Stands in for the result of an op that raised."""

    def __init__(self, exc: Exception):
        self.text = f"{type(exc).__name__}: {exc}"

    def __eq__(self, other):
        return isinstance(other, OpError) and other.text == self.text


def run_pass(prepared, L, tracer, op_names, op_base, latencies):
    """Run every op once; returns (wall_ns, results).  The untraced loop
    is kept separate so that it carries none of the tracing cost."""
    pc = time.perf_counter_ns
    results = [None] * len(prepared)
    if tracer is None:
        start = pc()
        for i, (fn, args) in enumerate(prepared):
            t0 = pc()
            try:
                results[i] = fn(L, *args)
            except Exception as exc:  # recorded, then checked by the oracle
                results[i] = OpError(exc)
            latencies.append(pc() - t0)
        return pc() - start, results
    spans = tracer.spans
    start = pc()
    for i, (fn, args) in enumerate(prepared):
        sid = len(spans)
        spans.append(None)
        tracer.parent, tracer.op = sid, op_base + i
        ok = True
        t0 = pc()
        try:
            results[i] = fn(L, *args)
        except Exception as exc:
            results[i] = OpError(exc)
            ok = False
        t1 = pc()
        spans[sid] = (op_names[i], t0, t1, -1, op_base + i, ok)
        latencies.append(t1 - t0)
    return pc() - start, results


def peak_rss_kb() -> int:
    """Peak RSS of this process's own memory (VmHWM).  ``ru_maxrss`` would
    also count the parent's memory at the moment it spawned this process."""
    try:
        with open("/proc/self/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main():
    job = json.load(sys.stdin)
    ops = job["ops"]
    prepared = [(OPS[op[0]], op[1:]) for op in ops]
    tracer = Tracer() if job["trace"] else None
    cli = any(op[0] == "main" for op in ops)
    L = library(cli, job.get("table_path", ""), tracer)
    op_names = tracer and [tracer.name_id(f"op.{op[0]}") for op in ops]

    ref = []
    if job["warmup"]:
        _, ref = run_pass(prepared, library(cli, L.table_path, None), None, None, 0, [])
    best: list[int] = []  # per op, the fastest of its timed runs
    walls = []
    mismatches = 0
    for p in range(job["passes"]):
        latencies: list[int] = []
        wall, results = run_pass(prepared, L, tracer, op_names, p * len(ops), latencies)
        walls.append(wall)
        best = list(map(min, best, latencies)) if best else latencies
        if p == 0 and not job["warmup"]:
            ref = results
        else:
            mismatches += sum(r != e for r, e in zip(results, ref))

    report = {
        "file": spherestruct.__file__,
        "ops": len(ops) * job["passes"],
        "wall_s": sum(walls) / 1e9,
        "best_ns": best,
        "rss_kb": peak_rss_kb(),
        "mismatches": mismatches,
        "results": [{"error": r.text} if isinstance(r, OpError)
                    else canonical(op[0], r, spherestruct)
                    for op, r in zip(ops, ref)],
    }
    if tracer is not None:
        report["span_names"] = tracer.names
        report["spans"] = tracer.spans
    json.dump(report, sys.stdout, separators=(",", ":"))


if __name__ == "__main__":
    main()
