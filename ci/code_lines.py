"""Code lines per src/polarspec module, then per test file in tests/:
lines holding code, not counting blank lines, comments or docstrings.
Run from the repository root:

    python ci/code_lines.py

Prints two blocks, the package's and the tests', each one "count  file"
line per file and then its total. A docstring is a string literal that
stands alone as the first statement of a module, class or function; any
other string counts on every line it spans.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def main() -> int:
    for block, folder in enumerate(("src/polarspec", "tests")):
        if block:
            print()
        total = 0
        for path in sorted((ROOT / folder).glob("*.py")):
            count = code_lines(path.read_text(encoding="utf-8"))
            total += count
            print(f"{count:5d}  {folder}/{path.name}")
        print(f"{total:5d}  {folder} total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
