"""Print the code lines of each module of the ``qsm`` package and their total.

Usage:
    python3 tools/code_lines.py [SRC_DIR]

SRC_DIR is the directory that holds the ``qsm`` package (default: the
``src`` directory of this checkout), so two checkouts compare by running the
script on each.  A code line is a physical line that holds a Python token
other than a comment.  Blank lines, comment-only lines and the docstrings of
modules, classes and functions are not counted; the lines of any other
string, and of a statement continued over several lines, are.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

#: token types that hold no code of their own
_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    """Code lines of one module."""
    text = path.read_text(encoding="utf-8")
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(text)))


def main(argv: list[str]) -> int:
    src = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parent.parent / "src"
    modules = sorted((src / "qsm").glob("*.py"))
    if not modules:
        print(f"no qsm package under {src}", file=sys.stderr)
        return 2
    total = 0
    for path in modules:
        count = code_lines(path)
        total += count
        print(f"{count:5d} {path.name}")
    print(f"{total:5d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
