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

A module-level public name counts as used when code under ``src/`` other
than its own definition reads it in one of those ways, or when a script in
``bench/`` reads it, either in code or as a string (the bench tracer
patches functions by name).  A name that only tests use does not belong
in ``src/``; the few public names that nothing else reads are listed in
``KEPT_UNREAD`` with the reason each stays.

A public field of a dataclass under ``src/`` counts as used when some
module under ``src/``, or a script in ``bench/``, reads it as an
attribute.  An attribute that is only the receiver of a mutating call
(``report.mismatches.append(...)``, or ``extend``, ``add``, ``update``,
``insert``) is written, not read.  A field that only echoes what its
caller already holds fails here; the few fields that only tests read are
listed in ``KEPT_FIELDS`` with the reason each stays.

The check matches field names, not classes, so a field whose name some
other class's attribute shares still passes when nothing reads it.  Such
fields have to be found by hand: ``SmoothedDecomposition.martingale``
(``doob_meyer``'s M itself), ``SmoothedDecomposition.jump_times`` and
``DyadicLevel.level`` (its place in the list) passed this way, and were
removed.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
MODULES = sorted(SRC.rglob("*.py"))
BENCH_SCRIPTS = sorted((SRC.parent / "bench").glob("*.py"))

# public names that nothing in src/ or bench/ reads, and why each stays
KEPT_UNREAD = {
    "tau_hat": "a statement of the paper",
    "chain_measure_from_constant_times": "a statement of the paper",
    "unary_chain": "test support: the corpus's one-path tree",
}
# public dataclass fields that nothing in src/ or bench/ reads, and why each stays
KEPT_FIELDS = {
    "SmoothedDecomposition.drift_adapted": "test oracle: the smoothed drift as a node map",
    "MassRedirectResult.indicator": "test oracle: the event indicators of the disjointness test",
    "SplitLimitResult.terminal": "test oracle: the per-path values of the block test",
}
DISPATCHED_PREFIX = "cmd_"  # cli.main looks each subcommand's handler up by name


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


def definitions(module: ast.Module):
    """(statement, line, name) of each name that a module-level statement defines."""
    found = []
    for node in module.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.append((node, node.lineno, node.name))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                found += [(node, n.lineno, n.id) for n in ast.walk(target) if isinstance(n, ast.Name)]
    return found


def private_definitions(source: str):
    """(line, name) of each module-level private name that ``source`` defines."""
    return [
        (line, name)
        for _, line, name in definitions(ast.parse(source))
        if name.startswith("_") and not (name.startswith("__") and name.endswith("__"))
    ]


def references(source, strings=False):
    """Every name that ``source`` (text or a parsed node) reads, reads as an attribute, or imports.

    With ``strings``, each dotted part of a string constant counts as read too.
    """
    names = set()
    tree = ast.parse(source) if isinstance(source, str) else source
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.update(node.value.split("."))
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


def unread_public_names(module: ast.Module, elsewhere: set):
    """(line, name) of each public module-level name that nothing reads.

    A reader is ``elsewhere`` or a statement of ``module`` other than the
    name's own definition.  ``KEPT_UNREAD`` and the dispatched handlers are
    left out.
    """
    unread = []
    for stmt, line, name in definitions(module):
        if name.startswith("_") or name in KEPT_UNREAD or name.startswith(DISPATCHED_PREFIX):
            continue
        if name in elsewhere:
            continue
        if not any(name in references(other) for other in module.body if other is not stmt):
            unread.append((line, name))
    return unread


def test_the_check_sees_an_unread_public_name():
    module = ast.parse(
        "LIMIT = 3\n"
        "UNREAD = 4\n"
        "def used(n):\n"
        "    return min(n, LIMIT)\n"
        "def only_itself(n):\n"
        "    return only_itself(n - 1) if n else 0\n"
        "class Report:\n"
        "    def again(self) -> 'Report':\n"
        "        return Report()\n"
        "def patched_by_name():\n"
        "    pass\n"
        "def cmd_run(args):\n"
        "    pass\n"
        "def tau_hat():\n"
        "    pass\n"
    )
    other = references("from .m import used\nused(1)\n")
    bench = references("spans(m, 'm', ('patched_by_name',))\n", strings=True)
    assert unread_public_names(module, other | bench) == [
        (2, "UNREAD"),
        (5, "only_itself"),
        (7, "Report"),
    ]


PARSED = {path: ast.parse(path.read_text(encoding="utf-8")) for path in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=[str(p.relative_to(SRC)) for p in MODULES])
def test_every_public_name_is_read_outside_tests(path):
    elsewhere = set().union(
        *(references(module) for other, module in PARSED.items() if other != path),
        *(references(p.read_text(encoding="utf-8"), strings=True) for p in BENCH_SCRIPTS),
    )
    assert unread_public_names(PARSED[path], elsewhere) == []


def is_dataclass(node: ast.ClassDef) -> bool:
    """Whether ``@dataclass`` or ``@dataclass(...)`` decorates the class."""
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
    return False


def dataclass_fields(module: ast.Module):
    """(line, "Class.field") of each public field of each dataclass that ``module`` defines."""
    return [
        (stmt.lineno, f"{node.name}.{stmt.target.id}")
        for node in ast.walk(module)
        if isinstance(node, ast.ClassDef) and is_dataclass(node)
        for stmt in node.body
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
        and not stmt.target.id.startswith("_")
    ]


MUTATORS = {"append", "extend", "add", "update", "insert"}


def attribute_reads(module: ast.Module) -> set:
    """Every attribute name that ``module`` reads, not counting the receivers of ``MUTATORS`` calls."""
    receivers = {
        id(node.func.value)
        for node in ast.walk(module)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr in MUTATORS
    }
    return {
        node.attr
        for node in ast.walk(module)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load) and id(node) not in receivers
    }


def test_the_check_sees_an_unread_field():
    module = ast.parse(
        "from dataclasses import dataclass\n"
        "@dataclass(frozen=True)\n"
        "class Result:\n"
        "    estimate: float\n"
        "    bound: float\n"
        "    _cache: dict\n"
        "    def width(self):\n"
        "        return self.estimate\n"
        "@dataclass\n"
        "class Report:\n"
        "    echoed: int\n"
        "    logged: list\n"
        "    rows: list\n"
        "class Plain:\n"
        "    unread: int\n"
        "def set_only(r):\n"
        "    r.echoed = 3\n"
        "    r.logged.append(3)\n"
        "    r.rows.append(3)\n"
        "    return len(r.rows)\n"
    )
    fields = dataclass_fields(module)
    assert fields == [
        (4, "Result.estimate"), (5, "Result.bound"), (11, "Report.echoed"), (12, "Report.logged"), (13, "Report.rows"),
    ]
    read = attribute_reads(module)
    unread = [name for _, name in fields if name.partition(".")[2] not in read]
    assert unread == ["Result.bound", "Report.echoed", "Report.logged"]


@pytest.mark.parametrize("path", MODULES, ids=[str(p.relative_to(SRC)) for p in MODULES])
def test_every_dataclass_field_is_read_outside_tests(path):
    read = set().union(
        *(attribute_reads(module) for module in PARSED.values()),
        *(attribute_reads(ast.parse(p.read_text(encoding="utf-8"))) for p in BENCH_SCRIPTS),
    )
    unread = [
        (line, name)
        for line, name in dataclass_fields(PARSED[path])
        if name.partition(".")[2] not in read and name not in KEPT_FIELDS
    ]
    assert unread == []
