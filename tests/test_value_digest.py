"""The value digest of ``value_digest.py`` on a small grid matches the one
recorded in ``golden_values.json``: no library value or error changed."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def test_value_digests_match_golden():
    golden = json.loads((HERE / "golden_values.json").read_text(encoding="utf-8"))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [
            sys.executable,
            str(HERE / "value_digest.py"),
            "--max-sum", str(golden["max_sum"]),
            "--max-d", str(golden["max_d"]),
            "--json",
        ],
        capture_output=True, text=True, env=env, check=True,
    )
    assert json.loads(result.stdout) == golden
