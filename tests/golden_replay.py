"""Replay the CLI's golden cases under whatever Python runs this file.

``golden_cli.json`` lists queries together with the exit status, standard
output and standard error they produced when the file was recorded; a
refactor must reproduce every one of them exactly.  The argument
``@table`` stands for ``golden_table.json`` beside this file.  The
``--help`` cases are recorded under CPython 3.11's argparse layout;
another version may lay help out differently (under 3.13 the top-level
``--help`` case differs in argparse's column width), while every other
case holds from Python 3.10 on.

The module needs only the standard library, so any admitted interpreter
can run it on this checkout's package:

    python tests/golden_replay.py

prints the argv of each case whose output differs, one per line, then
``matched/total``, and exits with status 1 if any case differs.  To
record the outputs again after an intended output change:

    python tests/golden_replay.py --record

It rewrites the file and prints the argv of each case whose output
changed, one per line.  ``test_golden.py`` runs the same cases through
``CASES`` and ``_run`` under pytest.
"""

from __future__ import annotations

import json
import os
import sys
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path
from unittest import mock

HERE = Path(__file__).resolve().parent
if __name__ == "__main__":  # run as a script: replay this checkout's package
    sys.path.insert(0, str(HERE.parent / "src"))

from spherestruct.cli import main  # noqa: E402

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


if __name__ == "__main__":
    recorded = [_run(case["argv"]) for case in CASES]
    changed = [old["argv"] for old, new in zip(CASES, recorded) if new != old]
    for argv in changed:
        print(" ".join(argv))
    if sys.argv[1:] == ["--record"]:
        GOLDEN.write_text(json.dumps(recorded, indent=1) + "\n", encoding="utf-8")
    else:
        print(f"{len(CASES) - len(changed)}/{len(CASES)}")
        sys.exit(1 if changed else 0)
