"""Reading and writing exact-engine files: the tree build, the JSON writer and the KY ledger.

The build is checked against a plain breadth-first walk of the node list
and against products of edge probabilities along each path; the writer
against the standard library's indented encoder, which is its oracle here
and nowhere in the package; the process dicts against one ``frac_str``
per entry; the ledger by reading it back with ``csv.reader``.
"""

import contextlib
import csv
import io
import json
import os
import random
import tempfile
from fractions import Fraction
from math import prod
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from follmer_lab import trees
from follmer_lab.cli import main
from follmer_lab.corpus import binary_example, random_case
from follmer_lab.decompositions import doob_meyer, multiplicative
from follmer_lab.errors import TreeValidationError
from follmer_lab.follmer import construct_follmer, verify_ky_all, write_ky_ledger
from follmer_lab.trees import FilteredTree, write_json

# -- the tree build ------------------------------------------------------------


def uniform_tree_nodes(branching, depth):
    """A full tree, every edge probability the one string ``1/branching``."""
    nodes, level = [{"id": "r", "parent": None}], ["r"]
    for _ in range(depth):
        level = [f"{par}.{j}" for par in level for j in range(branching)]
        nodes += [{"id": n, "parent": n.rsplit(".", 1)[0], "prob": f"1/{branching}"} for n in level]
    return nodes


def reference_walk(horizon, nodes):
    """Order, level starts, depths, leaves and children (in file order) by a plain breadth-first walk."""
    kids = {str(spec["id"]): [] for spec in nodes}
    root = None
    for spec in nodes:
        if spec.get("parent") is None:
            root = str(spec["id"])
        else:
            kids[str(spec["parent"])].append(str(spec["id"]))
    order, levels, depth, frontier = [], [], {root: 0}, [root]
    while frontier:
        levels.append(len(order))
        order += frontier
        frontier = [c for n in frontier for c in kids[n]]
        for c in frontier:
            depth[c] = len(levels)
    levels.append(len(order))
    assert len(levels) == horizon + 2
    return order, levels, depth, [n for n in order if not kids[n]], kids


def build_cases():
    rng = random.Random(15)
    cases = [(3, uniform_tree_nodes(3, 3))]
    for k in range(40):
        tree, z = random_case(rng, max_depth=4, max_branching=3, martingale=k % 3 == 0)
        data = tree.to_dict(z)
        rng.shuffle(data["nodes"])  # children before parents too
        cases.append((data["horizon"], data["nodes"]))
    return cases


@pytest.mark.parametrize("horizon, nodes", build_cases())
def test_build_matches_a_reference_walk(horizon, nodes):
    tree = FilteredTree(horizon, nodes)
    order, levels, depth, leaves, kids = reference_walk(horizon, nodes)
    assert tree._order == order
    assert tree._levels == levels
    assert tree.depth == depth
    assert tree.leaves == leaves
    # one id object per node: the walk's own, keying the children in walk order
    # and linking each child to its parent
    assert all(k is n for k, n in zip(tree.children, tree._order))
    for n in order:
        assert tree.path_prob[n] == prod((tree.prob[m] for m in tree.path_to(n)), start=Fraction(1))
        assert type(tree.children[n]) is tuple and tree.children[n] == tuple(kids[n])
        assert all(tree.parent[c] is n for c in tree.children[n])


def test_a_uniform_level_shares_one_path_probability():
    tree = FilteredTree(4, uniform_tree_nodes(2, 4))
    for t in range(tree.horizon + 1):
        level = tree.nodes_at_depth(t)
        assert len({id(tree.path_prob[n]) for n in level}) == 1
        assert tree.path_prob[level[0]] == Fraction(1, 2**t)


def _from_json(tmp_path, data):
    """``FilteredTree.from_json`` on ``data`` written as a tree file."""
    tree_file = tmp_path / "tree.json"
    tree_file.write_text(json.dumps(data))
    return FilteredTree.from_json(str(tree_file))


def _chain(bad_z_at=None):
    """r -> a -> a.0 with valid values, listed a.0 first; ``bad_z_at`` gets a float z."""
    nodes = [
        {"id": "a.0", "parent": "a", "prob": "1", "z": "1"},
        {"id": "r", "parent": None, "z": "1"},
        {"id": "a", "parent": "r", "prob": "1", "z": "1"},
    ]
    for spec in nodes:
        if spec["id"] == bad_z_at:
            spec["z"] = 0.5
    return nodes


@pytest.mark.parametrize(
    "edit, named",
    [
        (lambda nodes: nodes[2].update(prob="1/0"), "edge probability at node 'a' is not an exact rational"),
        (lambda nodes: nodes[2].update(prob="1/2"), "child probabilities at 'r' sum to 1/2, not 1"),
    ],
    ids=["unparsable-prob", "prob-block-sum"],
)
def test_a_prob_fault_is_reported_before_an_earlier_bad_z(tmp_path, edit, named):
    # the bad z sits on the first node in the file, the bad prob after it
    nodes = _chain(bad_z_at="a.0")
    edit(nodes)
    with pytest.raises(TreeValidationError, match=named):
        _from_json(tmp_path, {"horizon": 2, "nodes": nodes})


def test_an_unreachable_node_is_reported_before_a_bad_z(tmp_path):
    nodes = _chain(bad_z_at="a.0") + [{"id": "x", "parent": "x", "prob": "1", "z": "1"}]
    with pytest.raises(TreeValidationError, match="unreachable from root") as err:
        _from_json(tmp_path, {"horizon": 2, "nodes": nodes})
    assert err.value.node == "x"
    # without the unreachable node, the bad z is what is named
    with pytest.raises(TreeValidationError, match="process value at node 'a.0'"):
        _from_json(tmp_path, {"horizon": 2, "nodes": _chain(bad_z_at="a.0")})


# -- the JSON writer -------------------------------------------------------------

_SCALAR = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(2**300), max_value=2**300),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(),
    st.sampled_from(["}", "},\n {", "é中", "\x00\x1f\x7f", '"\\', "퟿\U0001f600"]),
)
_LEAF_DICT = st.dictionaries(st.text(), _SCALAR, max_size=6)
_BIG = trees._CHUNK + 1
# containers past the chunk size, built directly: drawing each item would be slow
_LARGE = st.one_of(
    st.integers(_BIG, 2 * _BIG).map(lambda n: {f"k{i:05d}é": i / 7 for i in range(n)}),
    st.integers(_BIG, 2 * _BIG).map(lambda n: [str(i) for i in range(n)]),
    st.integers(_BIG, 2 * _BIG).map(lambda n: [{"id": f"n{i}", "\n": None, "z": -i} for i in range(n)]),
)
_JSON = st.recursive(
    st.one_of(_SCALAR, _LEAF_DICT, st.lists(_LEAF_DICT, max_size=4)),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.text(), inner, max_size=4),
    ),
    max_leaves=12,
)


def _written(obj) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "out.json")
        write_json(path, obj)
        with open(path, "rb") as fh:
            return fh.read().decode("utf-8")


def _oracle(obj) -> str:
    return json.dumps(obj, indent=1, sort_keys=True) + "\n"


@settings(derandomize=True, max_examples=150, deadline=None)
@given(obj=_JSON)
def test_write_json_matches_the_stdlib_indented_encoder(obj):
    assert _written(obj) == _oracle(obj)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(obj=st.one_of(_LARGE, st.dictionaries(st.text(max_size=3), _LARGE, min_size=1, max_size=2)))
def test_write_json_matches_past_the_chunk_size(obj):
    assert _written(obj) == _oracle(obj)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(obj=_JSON)
def test_write_json_matches_at_every_chunk_boundary(obj):
    # two items per encoder call: every container of three or more items is split
    with mock.patch.object(trees, "_CHUNK", 2):
        assert _written(obj) == _oracle(obj)


def test_write_json_refuses_what_the_stdlib_refuses():
    for bad in ({"a": object()}, {(1, 2): 1}, {"a": {(1, 2): [1]}}, {"a": [1, {1, 2}]}):
        with pytest.raises(TypeError):
            json.dumps(bad, indent=1, sort_keys=True)
        with pytest.raises(TypeError):
            _written(bad)


# -- process dicts -------------------------------------------------------------------


def _process_maps(tree, z):
    """The four value maps ``decompose`` writes, with their ``to_dict`` results."""
    add, mul = doob_meyer(tree, z), multiplicative(tree, z)
    for proc in (add.martingale, mul.martingale):
        yield proc.values, proc.to_dict()
    for proc in (add.drift, mul.factor):
        d = proc.to_dict()
        assert d["initial"] == trees.frac_str(proc.initial)
        yield proc.steps, d["steps"]


def test_process_dicts_equal_the_per_entry_strings():
    rng = random.Random(16)
    cases = [binary_example()] + [random_case(rng, martingale=k % 3 == 0) for k in range(30)]
    shared = 0
    for tree, z in cases:
        for values, written in _process_maps(tree, z):
            # one string per value object, in the map's own key order
            assert list(written.items()) == [(n, trees.frac_str(v)) for n, v in values.items()]
            shared += len(values) - len({id(v) for v in values.values()})
    assert shared > 0  # some maps do share value objects across nodes


# -- the KY ledger -------------------------------------------------------------------

AWKWARD_IDS = ["a,b", 'c"d', "e\nf", "g\rh", " i ", ""]


def test_ledger_rows_read_back_for_awkward_node_ids(tmp_path):
    root, kids = AWKWARD_IDS[0], AWKWARD_IDS[1:]
    nodes = [{"id": root, "parent": None, "z": "1"}]
    nodes += [
        {"id": k, "parent": root, "prob": f"1/{len(kids)}", "z": "1/2"} for k in kids
    ]
    data = {"horizon": 1, "nodes": nodes}
    tree, z = _from_json(tmp_path, data)
    rep = verify_ky_all(construct_follmer(tree, z), tree, z)
    path = tmp_path / "ledger.csv"
    write_ky_ledger(rep, str(path))
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["rho_id", "atom_node", "lhs", "rhs", "equal"]
    assert [r[1] for r in rows[1:]] == AWKWARD_IDS
    assert all(len(r) == 5 and r[4] == "true" for r in rows[1:])

    # the same through the CLI, which exits 0 on the certified pair
    tree_file = tmp_path / "tree.json"
    tree_file.write_text(json.dumps(data))
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["follmer", str(tree_file), "--out", str(tmp_path / "out")]) == 0
    with open(tmp_path / "out" / "ky_ledger.csv", newline="", encoding="utf-8") as fh:
        assert list(csv.reader(fh)) == rows
