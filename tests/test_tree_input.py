"""Rationals read from tree files: exact parsing and validation errors that name the node."""

import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import follmer_lab
from follmer_lab.cli import main
from follmer_lab.corpus import binary_example
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


def _tree_data(prob_up="1/2", z_down="1/4"):
    return {
        "horizon": 1,
        "nodes": [
            {"id": "r", "parent": None, "z": "1/1"},
            {"id": "up", "parent": "r", "prob": prob_up, "z": "3/2"},
            {"id": "down", "parent": "r", "prob": "1/2", "z": z_down},
        ],
    }


@pytest.mark.parametrize(
    "data, node",
    [(_tree_data(prob_up=0.5), "up"), (_tree_data(z_down=1.5), "down")],
    ids=["float-prob", "float-z"],
)
def test_from_dict_names_the_node_of_a_float(data, node):
    with pytest.raises(TreeValidationError) as err:
        FilteredTree.from_dict(data)
    assert err.value.node == node
    assert "not an exact rational" in str(err.value)


@pytest.mark.parametrize("command", ["decompose", "follmer", "verify"])
@pytest.mark.parametrize(
    "data, node",
    [(_tree_data(prob_up=0.5), "up"), (_tree_data(z_down=1.5), "down")],
    ids=["float-prob", "float-z"],
)
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
