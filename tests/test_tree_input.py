"""Tree files: exact rationals, validation errors that name the node, and the exit-code contract."""

import contextlib
import io
import json
import math
import os
import random
import subprocess
import sys
import tempfile
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import follmer_lab
from follmer_lab.cli import main
from follmer_lab.corpus import binary_example, random_case
from follmer_lab.errors import TreeValidationError
from follmer_lab.follmer import construct_follmer
from follmer_lab.trees import FilteredTree, frac


def test_frac_agrees_with_fraction_on_strings():
    for s in ("3/4", "007/20", "0/5", "12", "-3/4", " 3/4", "1.5", "2e3", "6/4"):
        assert frac(s) == Fraction(s)
        assert type(frac(s)) is Fraction
    for bad in ("1/0", "a/b", "1//2", "", "/3", "3/"):
        with pytest.raises((ValueError, ZeroDivisionError)) as want:
            Fraction(bad)
        with pytest.raises(want.type):
            frac(bad)
    with pytest.raises(TypeError):
        frac(0.5)


def test_frac_refuses_an_exponent_beyond_the_digit_limit():
    # Fraction(str) computes 10^e; frac refuses first, and frac_str could
    # not print such a value anyway
    limit = sys.get_int_max_str_digits()
    assert frac(f"1e-{limit}") == Fraction(1, 10**limit)
    for big in (f"1e-{limit + 1}", f"2E+{limit + 1}", "1e-100000", "1e1_000_000", "1e-999999999 "):
        with pytest.raises(ValueError, match="beyond the"):
            frac(big)


def _tree_data(prob_up="1/2", z_down="1/4"):
    return {
        "horizon": 1,
        "nodes": [
            {"id": "r", "parent": None, "z": "1/1"},
            {"id": "up", "parent": "r", "prob": prob_up, "z": "3/2"},
            {"id": "down", "parent": "r", "prob": "1/2", "z": z_down},
        ],
    }


NOT_RATIONAL = [
    (_tree_data(prob_up=0.5), "up"),
    (_tree_data(z_down=1.5), "down"),
    (_tree_data(prob_up=True), "up"),
    (_tree_data(z_down=True), "down"),
]
NOT_RATIONAL_IDS = ["float-prob", "float-z", "bool-prob", "bool-z"]


def _from_json(tmp_path, data):
    """``FilteredTree.from_json`` on ``data`` written as a tree file."""
    tree_file = tmp_path / "tree.json"
    tree_file.write_text(json.dumps(data))
    return FilteredTree.from_json(str(tree_file))


@pytest.mark.parametrize("data, node", NOT_RATIONAL, ids=NOT_RATIONAL_IDS)
def test_from_json_names_the_node_of_a_float(tmp_path, data, node):
    with pytest.raises(TreeValidationError) as err:
        _from_json(tmp_path, data)
    assert err.value.node == node
    assert "not an exact rational" in str(err.value)


@pytest.mark.parametrize("command", ["decompose", "follmer", "verify"])
@pytest.mark.parametrize("data, node", NOT_RATIONAL, ids=NOT_RATIONAL_IDS)
def test_cli_exits_2_on_float_values(tmp_path, capsys, command, data, node):
    tree_file = tmp_path / "tree.json"
    tree_file.write_text(json.dumps(data))
    argv = [command, str(tree_file)]
    if command == "verify":
        tree, z = binary_example()
        pair_file = tmp_path / "pair.json"
        construct_follmer(tree, z).to_json(str(pair_file))
        argv.append(str(pair_file))
    assert main(argv + ["--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert f"node '{node}'" in err and f"(node {node})" in err


def test_float_prob_exits_2_without_traceback(tmp_path):
    tree_file = tmp_path / "tree.json"
    tree_file.write_text(json.dumps(_tree_data(prob_up=0.5)))
    src = os.path.dirname(os.path.dirname(follmer_lab.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "follmer_lab.cli", "decompose", str(tree_file)],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "(node up)" in proc.stderr


def _edited(edit):
    data = _tree_data()
    data["nodes"][1]["state"] = "u"
    edit(data)
    return data


@pytest.mark.parametrize(
    "command, data, named",
    [
        ("decompose", [_tree_data()], "a tree file must be an object with a 'nodes' list"),
        ("decompose", _edited(lambda d: d["nodes"][1].pop("id")), "node entry 1 must be an object with an 'id'"),
        ("decompose", _edited(lambda d: d["nodes"].append(5)), "node entry 3 must be an object with an 'id', got 5"),
        ("decompose", _edited(lambda d: d.update(horizon="a")), "horizon must be an integer, got 'a'"),
        ("decompose", _edited(lambda d: d.update(horizon=True)), "horizon must be an integer, got True"),
        ("uniqueness", _edited(lambda d: d["nodes"][1].update(state=[1])), "state at node 'up' must be a string or null"),
        ("decompose", None, "Is a directory"),
        (
            "decompose",
            _edited(lambda d: d["nodes"][2].update(z="1e-5000")),
            "process value at node 'down' is not an exact rational: '1e-5000' (exponent -5000 is beyond the",
        ),
        ("uniqueness", _edited(lambda d: d["nodes"][1].update(z="3E+5000")), "process value at node 'up'"),
        ("follmer", _edited(lambda d: d["nodes"][1].update(prob="5e-99999")), "edge probability at node 'up'"),
        (
            "uniqueness",
            _edited(lambda d: d["nodes"][2].update(z="1/0")),
            "process value at node 'down' is not an exact rational: '1/0' (its denominator is 0) (node down)",
        ),
        (
            "decompose",
            _edited(lambda d: [node.pop("z") for node in d["nodes"]]),
            "process values missing at 3 of 3 nodes: 'r', 'up', 'down' (node r)",
        ),
    ],
    ids=[
        "top-level-list", "node-without-id", "node-5", "horizon-str", "horizon-true", "state-list", "directory",
        "exponent-z", "exponent-z-positive", "exponent-prob", "zero-denominator-z", "no-z",
    ],
)
def test_malformed_tree_file_exits_2_naming_the_fault(tmp_path, capsys, command, data, named):
    tree_file = tmp_path
    if data is not None:
        tree_file = tmp_path / "tree.json"
        tree_file.write_text(json.dumps(data))
    assert main([command, str(tree_file), "--out", str(tmp_path / "out")]) == 2
    assert named in capsys.readouterr().err


# -- malformed tree and pair files through every exact subcommand -------------------

_JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=4),
    st.sampled_from(["1/2", "-1/2", "3/2", "0", "1/0", "never", "cemetery", "n", "n.0", math.inf, math.nan]),
    st.lists(st.integers(-1, 1), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
)


def _valid_files():
    tree, z = random_case(random.Random(5), max_depth=2)
    return tree.to_dict(z), construct_follmer(tree, z).to_dict()


@st.composite
def _one_fault(draw, doc, rows_key):
    """``doc`` (a tree or pair dict) with one value replaced, removed or repeated."""
    rows = doc[rows_key]
    k = draw(st.integers(0, len(rows) - 1))
    action = draw(st.sampled_from(["whole", "top-key", "drop-top-key", "row", "field", "drop-field", "repeat-row"]))
    if action == "whole":
        return draw(_JUNK)
    if action in ("top-key", "drop-top-key"):
        key = draw(st.sampled_from(sorted(doc)))
        if action == "drop-top-key":
            del doc[key]
        else:
            doc[key] = draw(_JUNK)
    elif action == "row":
        rows[k] = draw(_JUNK)
    elif action == "repeat-row":
        rows.append(dict(rows[k]))
    else:
        key = draw(st.sampled_from(sorted(rows[k]) + ["parent", "prob", "state", "z"]))
        if action == "drop-field":
            rows[k].pop(key, None)
        else:
            rows[k][key] = draw(_JUNK)
    return doc


@st.composite
def _broken_files(draw):
    tree_data, pair_data = _valid_files()
    if draw(st.booleans()):
        tree_data = draw(_one_fault(tree_data, "nodes"))
    else:
        pair_data = draw(_one_fault(pair_data, "outcomes"))
    return tree_data, pair_data


@settings(derandomize=True, max_examples=100, deadline=None)
@given(files=_broken_files())
def test_malformed_files_keep_the_exit_code_contract(files):
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for name, data in zip(("tree.json", "pair.json"), files):
            paths.append(os.path.join(tmp, name))
            with open(paths[-1], "w", encoding="utf-8") as fh:
                json.dump(data, fh)
        tree_file, pair_file = paths
        for argv in (
            ["decompose", tree_file],
            ["follmer", tree_file],
            ["verify", tree_file, pair_file],
            ["uniqueness", tree_file],
            ["witness", tree_file, "x"],
        ):
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = main(argv + ["--out", os.path.join(tmp, argv[0])])
            assert code in (0, 1, 2), argv
            if code == 1:
                assert "verification failed" in err.getvalue(), argv


def _verify_exit(pair_data):
    tree, z = binary_example()
    with tempfile.TemporaryDirectory() as tmp:
        tree_file, pair_file = os.path.join(tmp, "tree.json"), os.path.join(tmp, "pair.json")
        tree.to_json(tree_file, z)
        with open(pair_file, "w", encoding="utf-8") as fh:
            json.dump(pair_data, fh)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(["verify", tree_file, pair_file, "--out", os.path.join(tmp, "out")])
    assert code != 1 or "verification failed" in err.getvalue()
    return code


@settings(derandomize=True, max_examples=100, deadline=None)
@given(kill_time=st.one_of(_JUNK, st.integers(-2, 4), st.just(1.0)), target=_JUNK)
def test_pair_kill_times_and_survivor_targets_are_checked(kill_time, target):
    """A killed row's kill time is an integer or "never"; a surviving row has no target.

    On the binary example's pair: the killed row at the root dies at 1, and
    a "never" there makes a survivor off the leaves; the row surviving at
    "u" has target null.
    """
    tree, z = binary_example()
    data = construct_follmer(tree, z).to_dict()
    killed = next(r for r in data["outcomes"] if r["history_node"] == "r" and r["kill_time"] != "never")
    assert killed["kill_time"] == 1
    killed["kill_time"] = kill_time
    if kill_time == "never":
        want = 1
    elif isinstance(kill_time, int) and not isinstance(kill_time, bool):
        want = 0 if kill_time == 1 else 1
    else:
        want = 2
    assert _verify_exit(data) == want

    data = construct_follmer(tree, z).to_dict()
    survivor = next(r for r in data["outcomes"] if r["history_node"] == "u" and r["kill_time"] == "never")
    assert survivor["target"] is None
    survivor["target"] = target
    assert _verify_exit(data) == (0 if target is None else 1 if isinstance(target, str) else 2)


# -- one parse per distinct rational string ------------------------------------------

_EXACT_COMMANDS = ["decompose", "follmer", "verify", "uniqueness", "witness"]


def _exit_and_error(tmp_path, command, data):
    """Run one exact command on ``data`` as a tree file; (exit code, stderr)."""
    tree_file = tmp_path / "tree.json"
    tree_file.write_text(json.dumps(data))
    argv = [command, str(tree_file)]
    if command == "verify":
        tree, z = binary_example()
        construct_follmer(tree, z).to_json(str(tmp_path / "pair.json"))
        argv.append(str(tmp_path / "pair.json"))
    elif command == "witness":
        argv.append("x")
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv + ["--out", str(tmp_path / "out")])
    return code, err.getvalue()


@pytest.mark.parametrize("command", _EXACT_COMMANDS)
@pytest.mark.parametrize("field", ["prob", "z"])
@pytest.mark.parametrize("earlier", ["1/2", 1], ids=["str", "int"])
@pytest.mark.parametrize("later", [True, 1.0, [1, 2], {"a": 1}], ids=["true", "float", "list", "object"])
def test_an_equal_valued_earlier_value_does_not_admit_a_later_one(
    tmp_path, command, field, earlier, later
):
    # "1/2" and 1 parse first; the later value equals 1 (or cannot be hashed)
    data = _tree_data()
    data["nodes"][1][field] = earlier
    data["nodes"][2][field] = later
    code, err = _exit_and_error(tmp_path, command, data)
    assert code == 2
    assert "node 'down'" in err and "not an exact rational" in err and "(node down)" in err


def test_a_rational_string_reads_reduced_and_is_written_reduced(tmp_path):
    data = _tree_data(prob_up="2/4", z_down="2/8")
    data["nodes"][2]["prob"] = "2/4"
    tree, z = _from_json(tmp_path, data)
    assert tree.prob["up"] == tree.prob["down"] == Fraction(1, 2)
    assert z["down"] == Fraction(1, 4)
    written = tree.to_dict(z)["nodes"]
    assert [(n.get("prob"), n["z"]) for n in written] == [
        (None, "1/1"), ("1/2", "3/2"), ("1/2", "1/4")
    ]


def test_the_first_bad_z_in_file_order_is_named(tmp_path):
    # breadth-first the order is r, a, b, a.0, b.0; in the file a.0 comes first
    nodes = [
        {"id": "r", "parent": None, "z": "1"},
        {"id": "a.0", "parent": "a", "prob": "1", "z": 0.5},
        {"id": "a", "parent": "r", "prob": "1/2", "z": "1"},
        {"id": "b", "parent": "r", "prob": "1/2", "z": True},
        {"id": "b.0", "parent": "b", "prob": "1", "z": "1"},
    ]
    with pytest.raises(TreeValidationError) as err:
        _from_json(tmp_path, {"horizon": 2, "nodes": nodes})
    assert err.value.node == "a.0"


# -- faults that concern many nodes name five of them ------------------------------


def _wide_tree_nodes(n_leaves):
    """A root with ``n_leaves`` children of probability 1/n_leaves, ids c0000, c0001, ..."""
    kids = [{"id": f"c{k:04d}", "parent": "r", "prob": f"1/{n_leaves}"} for k in range(n_leaves)]
    return [{"id": "r", "parent": None}] + kids


def test_missing_process_values_name_five_nodes_and_the_count(tmp_path):
    nodes = _wide_tree_nodes(1999)
    nodes[-1]["z"] = "1"  # the only value, on the last node in the file
    with pytest.raises(TreeValidationError) as err:
        _from_json(tmp_path, {"horizon": 1, "nodes": nodes})
    # breadth-first from the root, which the error names as its node
    assert err.value.node == "r"
    assert str(err.value) == (
        "process values missing at 1999 of 2000 nodes: 'r', 'c0000', 'c0001', 'c0002', 'c0003', ..."
    )
    code, printed = _exit_and_error(tmp_path, "decompose", {"horizon": 1, "nodes": nodes})
    assert code == 2 and printed.endswith("'c0003', ... (node r)\n")


def test_unreachable_nodes_name_five_nodes_and_the_count(tmp_path):
    # 2,000 nodes and no z at all; 1997 of them form a cycle the root never reaches
    nodes = _wide_tree_nodes(2)
    nodes += [{"id": f"x{k:04d}", "parent": f"x{(k + 1) % 1997:04d}", "prob": "1"} for k in range(1997)]
    with pytest.raises(TreeValidationError) as err:
        _from_json(tmp_path, {"horizon": 1, "nodes": nodes})
    assert err.value.node == "x0000"
    assert str(err.value) == (
        "1997 of 2000 nodes: 'x0000', 'x0001', 'x0002', 'x0003', 'x0004', ... unreachable from root"
    )
