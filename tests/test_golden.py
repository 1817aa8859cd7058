"""Byte-for-byte gate on the CLI's default text and ``--json`` output.

``golden_cli.json`` lists queries together with the exit status, standard
output and standard error they produced when the file was recorded; a
refactor must reproduce every one of them exactly.  The argument
``@table`` stands for ``golden_table.json`` beside this file.  The
``--help`` cases are recorded under CPython 3.11's argparse layout;
another version may lay help out differently (under 3.13 the top-level
``--help`` case differs in argparse's column width), while every other
case holds from Python 3.10 on.  To record
the outputs again after an intended output change:

    PYTHONPATH=src python tests/test_golden.py

It rewrites the file and prints the argv of each case whose output
changed, one per line.
"""

from __future__ import annotations

import json
import os
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path
from unittest import mock

import pytest

from spherestruct.cli import main

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden_cli.json"
TABLE = HERE / "golden_table.json"
CASES = json.loads(GOLDEN.read_text(encoding="utf-8"))


def _run(argv: list[str]) -> dict:
    # argparse wraps help text to the terminal width, which it reads from
    # COLUMNS; fix it so that the ``--help`` cases do not depend on it.
    out, err = StringIO(), StringIO()
    with (
        mock.patch.dict(os.environ, COLUMNS="80"),
        redirect_stdout(out),
        redirect_stderr(err),
    ):
        code = main([str(TABLE) if arg == "@table" else arg for arg in argv])
    return {"argv": argv, "code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


@pytest.mark.parametrize("case", CASES, ids=[" ".join(c["argv"]) for c in CASES])
def test_cli_output_matches_golden(case):
    assert _run(case["argv"]) == case


if __name__ == "__main__":
    recorded = [_run(case["argv"]) for case in CASES]
    for old, new in zip(CASES, recorded):
        if new != old:
            print(" ".join(old["argv"]))
    GOLDEN.write_text(json.dumps(recorded, indent=1) + "\n", encoding="utf-8")
