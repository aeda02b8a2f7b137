"""Count the lines of the steercert sources, per module and in total.

Usage: python tools/srclines.py [DIR]

DIR defaults to src/steercert beside this tool's directory; every *.py file
under it is counted. Two counts are printed per module:

- lines: all lines, as the number of newlines;
- code: the lines that hold a token other than a comment, newline, indent
  or dedent, less the lines of module, class and function docstrings (a
  string constant that is the first statement of its body, found with ast).
  A token that spans lines counts every line it spans.

These are the size figures the BENCH_*.json files and the changelog quote.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
    tokenize.ENCODING,
}


def _docstring_lines(tree: ast.AST) -> set:
    lines: set = set()
    for node in ast.walk(tree):
        if not isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            continue
        body = node.body
        if (
            body
            and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)
        ):
            lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int]:
    """(lines, code lines) of one module's source."""
    code: set = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return source.count("\n"), len(code - _docstring_lines(ast.parse(source)))


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    repo = Path(__file__).resolve().parent.parent
    root = Path(argv[0]) if argv else repo / "src" / "steercert"
    total_lines = total_code = 0
    print(f"{'module':<24}{'lines':>8}{'code':>8}")
    for path in sorted(root.rglob("*.py")):
        lines, code = count(path.read_text(encoding="utf-8"))
        total_lines += lines
        total_code += code
        print(f"{path.relative_to(root).as_posix():<24}{lines:>8}{code:>8}")
    print(f"{'total':<24}{total_lines:>8}{total_code:>8}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
