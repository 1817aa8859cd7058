"""Closed loop of ``python -m spherestruct.cli`` queries.

Reads a JSON job on stdin: ``argvs`` (argument lists), ``block`` and
``passes`` (the queries go in blocks of ``block``, and each block is sent
``passes`` times in a row), ``seconds`` (start no new block after this
long; null for no limit) and ``trace`` (send each block ``passes`` more
times, recording a span around each query).  Prints one JSON report: per
query execution the exit status, stdout, wall time and the child's peak
RSS.

The loop lives in its own small interpreter that imports nothing the
CLI does not import itself.  A child's peak-RSS figure from ``wait4``
includes the memory of the process that spawned it, so a spawner no
larger than the CLI keeps that figure the child's own.
"""

import json
import os
import sys
import time


def main():
    job = json.load(sys.stdin)
    python = sys.executable
    out_path = os.path.join(".bench_work", "cli-stdout.txt")
    err_path = os.path.join(".bench_work", "cli-stderr.txt")
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 1, out_path, flags, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, err_path, flags, 0o644)]
    pc = time.perf_counter_ns
    deadline = None if job["seconds"] is None else pc() + int(job["seconds"] * 1e9)
    argvs, size, passes = job["argvs"], job["block"], job["passes"]
    runs = []
    spans = []
    for first in range(0, len(argvs), size):
        if deadline is not None and pc() >= deadline:
            break
        for p in range(2 * passes if job["trace"] else passes):
            traced = p >= passes
            for op_id in range(first, min(first + size, len(argvs))):
                start = pc()
                pid = os.posix_spawn(python, [python, "-m", "spherestruct.cli", *argvs[op_id]],
                                     os.environ, file_actions=actions)
                _, status, usage = os.wait4(pid, 0)
                end = pc()
                code = os.waitstatus_to_exitcode(status)
                if traced:
                    spans.append((start, end, op_id, code))
                with open(out_path, encoding="utf-8") as handle:
                    stdout = handle.read()
                runs.append({"op": op_id, "traced": traced, "code": code,
                             "stdout": stdout, "wall_ns": end - start,
                             "rss_kb": usage.ru_maxrss})
    json.dump({"runs": runs, "spans": spans}, sys.stdout)


if __name__ == "__main__":
    main()
