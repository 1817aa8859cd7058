"""The counting rule of tests/code_lines.py, the script that counts the
code lines of ``src``."""

import subprocess
import sys
from pathlib import Path

from code_lines import code_lines

_SCRIPT = Path(__file__).resolve().parent / "code_lines.py"

_SOURCE = '''"""A module docstring
over two lines."""

# A comment-only line, then a blank line.

def f(x):
    """A function docstring."""
    total = (x +  # a trailing comment
             1)
    return total
'''


def test_only_lines_with_code_count():
    # The docstrings, the comment-only line and the blank lines do not
    # count; each line of the expression over two lines does.
    assert code_lines(_SOURCE) == 4


def test_without_a_directory_it_prints_its_usage_and_exits_2():
    result = subprocess.run(
        [sys.executable, str(_SCRIPT)], capture_output=True, text=True
    )
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr == "usage: python tests/code_lines.py DIR\n"
