"""Byte-for-byte gate on the CLI's default text and ``--json`` output.

The cases and their runner live in ``golden_replay.py``, which needs only
the standard library, so that any admitted Python can replay them (see
its docstring, which also says how to record them again).
"""

from __future__ import annotations

import subprocess
import sys

import pytest

from golden_replay import CASES, HERE, _run


@pytest.mark.parametrize("case", CASES, ids=[" ".join(c["argv"]) for c in CASES])
def test_cli_output_matches_golden(case):
    assert _run(case["argv"]) == case


def test_the_stdlib_replay_matches_every_case():
    # The replay as a script, in a new interpreter without pytest: it finds
    # this checkout's package itself and reports every case matched.
    result = subprocess.run(
        [sys.executable, str(HERE / "golden_replay.py")], capture_output=True, text=True
    )
    assert (result.returncode, result.stdout, result.stderr) == (
        0, f"{len(CASES)}/{len(CASES)}\n", ""
    )
