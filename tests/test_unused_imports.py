"""No module under ``src/`` imports a name it never uses.

A name bound by an import counts as used when it is read anywhere in the
module, as a plain name or as the base of an attribute chain; a name that
only a quoted annotation, a docstring or ``__all__`` mentions is unused.
``from __future__`` imports bind nothing and are skipped.  A removal that
leaves its import behind fails here.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
MODULES = sorted(SRC.rglob("*.py"))


def unused_imports(source: str):
    """(line, name) of each imported name that ``source`` never reads."""
    module = ast.parse(source)
    bound = {}
    for node in ast.walk(module):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(module) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in used)


def test_the_check_sees_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import os, os.path\n"
        "from typing import Dict, List\n"
        "from .follmer import total_variation as tv\n"
        "x: Dict = os.sep\n"
    )
    assert unused_imports(source) == [(3, "List"), (4, "tv")]


@pytest.mark.parametrize("path", MODULES, ids=[str(p.relative_to(SRC)) for p in MODULES])
def test_no_unused_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
