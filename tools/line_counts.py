"""Line counts of a source directory: all lines, and code lines alone.

    python tools/line_counts.py src/entropybench

Prints one line per `*.py` file of SRC_DIR (not its subdirectories), in
name order, then a `total` line: the file's lines, and its code lines,
which leave out blank lines, comment-only lines and docstrings (a string
that is the first statement of a module, class or function).  A line
counts as code when a token other than a comment starts, ends or spans it,
so a statement continued over three lines counts three.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def count(text: str) -> tuple[int, int]:
    """(lines, code lines) of one Python source text."""
    docstrings = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, _SCOPES) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(text.splitlines()), len(code - docstrings)


def main(argv: list[str]) -> int:
    if len(argv) != 1 or not Path(argv[0]).is_dir():
        print("usage: python tools/line_counts.py SRC_DIR", file=sys.stderr)
        return 2
    total_lines = total_code = 0
    for path in sorted(Path(argv[0]).glob("*.py")):
        lines, code = count(path.read_text())
        total_lines += lines
        total_code += code
        print(f"{path.name:<16} {lines:>5} {code:>5}")
    print(f"{'total':<16} {total_lines:>5} {total_code:>5}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
