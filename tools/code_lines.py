"""Count the code lines of a Python package's modules.

A code line holds a token that is not a comment; blank lines and the lines
of module, class and function docstrings are left out. Run as

    python tools/code_lines.py src/statspace

to print each module's count and then the total.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
    tokenize.ENCODING, tokenize.ENDMARKER,
}
_HAS_DOCSTRING = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers of every docstring in ``tree``."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, _HAS_DOCSTRING) and ast.get_docstring(node, clean=False) is not None:
            first = node.body[0]
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: bytes) -> int:
    """The number of code lines in the Python ``source``."""
    lines: set[int] = set()
    for token in tokenize.tokenize(io.BytesIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main(package: str) -> None:
    total = 0
    for path in sorted(Path(package).glob("*.py")):
        count = code_lines(path.read_bytes())
        total += count
        print(f"{path.stem:<12} {count:>6,}")
    print(f"{'total':<12} {total:>6,}")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "src/statspace")
