"""Count the code lines of the Python files under a directory.

    python tests/code_lines.py src

A code line holds a token other than a comment, a line break or
indentation, and is not part of a module, class or function docstring
(found with ``ast``), so reflowing prose changes no count.  It prints
one ``count path`` line per file and then the total.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING,
}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(text: str) -> int:
    docstrings = set()
    for node in ast.walk(ast.parse(text)):
        doc = ast.get_docstring(node, clean=False) if isinstance(node, _SCOPES) else None
        if doc is not None:
            first = node.body[0]
            docstrings.update(range(first.lineno, first.end_lineno + 1))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type not in _LAYOUT:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstrings)


def main(root: str) -> None:
    total = 0
    for path in sorted(Path(root).rglob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:5d} {path.relative_to(root)}")
    print(f"{total:5d} total")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        print("usage: python tests/code_lines.py DIR", file=sys.stderr)
        sys.exit(2)
    main(sys.argv[1])
