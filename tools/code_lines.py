"""Count the code lines of ``src/`` and ``bench/``, per module and in total.

A code line is a line that holds a token other than a comment: blank lines,
comment-only lines and the lines of module, class and function docstrings
do not count.  A token that spans several lines, such as a triple-quoted
string that is not a docstring, counts every line it covers.

Run from the repository root, or anywhere:

    python tools/code_lines.py
"""

from __future__ import annotations

import ast
import io
import pathlib
import sys
import tokenize

ROOT = pathlib.Path(__file__).resolve().parent.parent
TREES = ("src", "bench")
NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def docstring_starts(source: str) -> set:
    """(line, column) of the string token of each module, class and function docstring."""
    starts = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                starts.add((first.value.lineno, first.value.col_offset))
    return starts


def code_lines(source: str) -> int:
    docstrings = docstring_starts(source)
    lines = set()
    for tok in tokenize.tokenize(io.BytesIO(source.encode("utf-8")).readline):
        if tok.type in NOT_CODE or (tok.type == tokenize.STRING and tok.start in docstrings):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main() -> int:
    for tree in TREES:
        base = ROOT / tree
        total = 0
        for path in sorted(base.rglob("*.py")):
            n = code_lines(path.read_text(encoding="utf-8"))
            total += n
            print(f"{n:6d}  {path.relative_to(ROOT)}")
        print(f"{total:6d}  {tree}/ total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
