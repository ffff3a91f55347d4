"""``tools/code_lines.py``: the code-line rule every size figure of the project cites."""

import importlib.util
import pathlib
import re

TOOL = pathlib.Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

SOURCE = '''"""Module docstring,
over two lines."""

# a comment line

import os  # a trailing comment leaves its line a code line


class A:
    """Class docstring."""

    def f(self):
        """Function
        docstring."""

        x = """not a docstring,
so every line
counts"""
        return x


async def g():
    """Docstring of a coroutine."""
    return os.sep
'''
# import, class, def, the three lines of x, return x, async def, return os.sep
SOURCE_CODE_LINES = 1 + 1 + 1 + 3 + 1 + 1 + 1


def test_docstrings_comments_and_blank_lines_do_not_count():
    assert code_lines.code_lines(SOURCE) == SOURCE_CODE_LINES
    assert code_lines.code_lines('"""Only a docstring."""\n\n# and a comment\n') == 0


def test_a_string_that_is_not_first_in_its_body_counts():
    source = 'def f():\n    pass\n    """Not a docstring:\n    second in the body."""\n'
    assert code_lines.code_lines(source) == 4


def test_main_prints_each_module_and_a_src_total(capsys):
    assert code_lines.main() == 0
    out = capsys.readouterr().out.splitlines()
    rows = [re.fullmatch(r"\s*(\d+)  (.+)", line).groups() for line in out]
    totals = {path: int(n) for n, path in rows if path.endswith(" total")}
    assert set(totals) == {"src/ total", "bench/ total"}
    src_rows = [(int(n), path) for n, path in rows if path.startswith("src/") and path.endswith(".py")]
    assert src_rows and totals["src/ total"] == sum(n for n, _ in src_rows)
    for n, path in src_rows:
        source = (TOOL.parent.parent / path).read_text(encoding="utf-8")
        assert code_lines.code_lines(source) == n
