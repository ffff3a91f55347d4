"""Path streams are read in ``mc/streams.py`` alone.

``streams.draw_blocks`` is the one loop over paths and the one block policy,
so no other module under ``src/`` builds or reads a stream: none names
``stream_state``, ``uniform_words``, ``_unkeyed_generator``,
``standard_normal`` or ``default_rng``, or reaches ``numpy.random``.  A
family reads its variates from the blocks it is handed.  ``ALLOWED`` lists
the one exception: ``selftest`` checks stream v1's uniform words against
numpy's own Philox on edge keys.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
STREAMS = SRC / "follmer_lab" / "mc" / "streams.py"
MODULES = sorted(p for p in SRC.rglob("*.py") if p != STREAMS)
STREAM_NAMES = {"stream_state", "uniform_words", "_unkeyed_generator", "standard_normal", "default_rng"}
NUMPY = {"np", "numpy"}
# (module, top-level function) -> the stream names it may use, and why
ALLOWED = {
    # stream v1's uniform words against numpy's Philox on edge keys
    ("follmer_lab/cli.py", "cmd_selftest"): {"uniform_words", "numpy.random"},
}


def names_read(node):
    """The stream names that one AST node uses, ``numpy.random`` for any reach into it."""
    if isinstance(node, ast.Name):
        return {node.id} & STREAM_NAMES
    if isinstance(node, ast.Attribute):
        if node.attr == "random" and isinstance(node.value, ast.Name) and node.value.id in NUMPY:
            return {"numpy.random"}
        return {node.attr} & STREAM_NAMES
    if isinstance(node, ast.Import):
        return {"numpy.random" for alias in node.names if alias.name.startswith("numpy.random")}
    if isinstance(node, ast.ImportFrom):
        found = {alias.name for alias in node.names} & STREAM_NAMES
        if node.module == "numpy.random" or node.module == "numpy" and any(a.name == "random" for a in node.names):
            found.add("numpy.random")
        return found
    return set()


def stream_reads(source: str):
    """(top-level function, name) of each stream name ``source`` uses; "" at module level."""
    reads = set()
    for stmt in ast.parse(source).body:
        owner = stmt.name if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) else ""
        reads.update((owner, name) for node in ast.walk(stmt) for name in names_read(node))
    return reads


def test_the_check_sees_a_stream_read():
    source = (
        "import numpy as np\n"
        "import numpy.random\n"
        "from numpy import random\n"
        "from .streams import stream_state, fill_paths\n"
        "def draw(seed):\n"
        "    rng = np.random.default_rng(seed)\n"
        "    return rng.standard_normal(3)\n"
        "def words(streams, z):\n"
        "    return streams.uniform_words(0, z, 3)\n"
        "def clean(z, random):\n"
        "    return np.cumsum(z) * random\n"
    )
    assert stream_reads(source) == {
        ("", "numpy.random"),
        ("", "stream_state"),
        ("draw", "numpy.random"),
        ("draw", "default_rng"),
        ("draw", "standard_normal"),
        ("words", "uniform_words"),
    }


@pytest.mark.parametrize("path", MODULES, ids=[str(p.relative_to(SRC)) for p in MODULES])
def test_only_streams_reads_a_stream(path):
    module = path.relative_to(SRC).as_posix()
    reads = stream_reads(path.read_text(encoding="utf-8"))
    assert {(owner, name) for owner, name in reads if name not in ALLOWED.get((module, owner), ())} == set()


def test_every_exception_is_still_used():
    for (module, owner), names in ALLOWED.items():
        reads = stream_reads((SRC / module).read_text(encoding="utf-8"))
        assert {(owner, name) for name in names} <= reads, (module, owner)
