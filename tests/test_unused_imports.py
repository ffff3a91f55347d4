"""No module under ``src/`` imports a name it never uses or defines a private name nothing uses.

A name bound by an import counts as used when it is read anywhere in the
module, as a plain name or as the base of an attribute chain; a name that
only a quoted annotation, a docstring or ``__all__`` mentions is unused.
``from __future__`` imports bind nothing and are skipped.  A removal that
leaves its import behind fails here.

A module-level private name (``_x``, not a dunder) defined by ``def``,
``class`` or assignment counts as used when some module under ``src/``
reads it as a plain name, reads it as an attribute or imports it.  A
removal that leaves its private helper behind fails here.
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


def private_definitions(source: str):
    """(line, name) of each module-level private name that ``source`` defines."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.append((node.lineno, node.name))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                found += [(n.lineno, n.id) for n in ast.walk(target) if isinstance(n, ast.Name)]
    return [
        (line, name)
        for line, name in found
        if name.startswith("_") and not (name.startswith("__") and name.endswith("__"))
    ]


def references(source: str):
    """Every name that ``source`` reads, reads as an attribute, or imports."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def test_the_check_sees_an_unused_private_name():
    source = (
        "_USED = 1\n"
        "_UNUSED: int = 2\n"
        "__version__ = '1'\n"
        "def _helper():\n"
        "    return _USED\n"
        "class _Left:\n"
        "    pass\n"
        "def public(x):\n"
        "    return x._helper\n"
    )
    defined = private_definitions(source)
    assert defined == [(1, "_USED"), (2, "_UNUSED"), (4, "_helper"), (6, "_Left")]
    used = references(source)
    assert [name for _, name in defined if name not in used] == ["_UNUSED", "_Left"]


@pytest.mark.parametrize("path", MODULES, ids=[str(p.relative_to(SRC)) for p in MODULES])
def test_no_unused_private_name(path):
    used = set().union(*(references(p.read_text(encoding="utf-8")) for p in MODULES))
    defined = private_definitions(path.read_text(encoding="utf-8"))
    assert [(line, name) for line, name in defined if name not in used] == []
