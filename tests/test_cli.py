"""CLI exit-code contract, file outputs, replay determinism, one parser per process."""

import argparse
import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from fractions import Fraction
from hashlib import sha256

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import follmer_lab
from follmer_lab import cli
from follmer_lab.cli import main
from follmer_lab.mc import grids, streams
from follmer_lab.mc.gallery import PARAMS
from follmer_lab.corpus import binary_example
from follmer_lab.errors import FreezeTargetError
from follmer_lab.follmer import FollmerPair, _check_freeze_admissible, construct_follmer
from follmer_lab.trees import AdaptedProcess, FilteredTree


@pytest.fixture
def binary_file(tmp_path):
    tree, z = binary_example()
    path = tmp_path / "binary.json"
    tree.to_json(str(path), z)
    return str(path)


@pytest.fixture
def martingale_file(tmp_path):
    tree = FilteredTree(
        1,
        [
            {"id": "r", "parent": None},
            {"id": "u", "parent": "r", "prob": "1/2", "state": "u"},
            {"id": "d", "parent": "r", "prob": "1/2", "state": "d"},
        ],
    )
    z = AdaptedProcess({"r": Fraction(1), "u": Fraction(3, 2), "d": Fraction(1, 2)})
    path = tmp_path / "mart.json"
    tree.to_json(str(path), z)
    return str(path)


def test_decompose_emits_exact_factor(binary_file, tmp_path):
    out = tmp_path / "out"
    assert main(["decompose", binary_file, "--out", str(out)]) == 0
    report = json.loads((out / "decomposition.json").read_text())
    assert report["multiplicative"]["D_mult"]["steps"]["r"] == "7/8"
    assert report["additive"]["D_add"]["steps"]["r"] == "-1/8"
    assert report["is_martingale"] is False


def test_decompose_martingale_unit_factor(martingale_file, tmp_path):
    out = tmp_path / "out"
    assert main(["decompose", martingale_file, "--out", str(out)]) == 0
    report = json.loads((out / "decomposition.json").read_text())
    assert report["multiplicative"]["D_mult"]["steps"]["r"] == "1/1"
    assert report["is_martingale"] is True


def test_decompose_malformed_probabilities_exits_2(tmp_path, capsys):
    bad = {
        "horizon": 1,
        "nodes": [
            {"id": "r", "parent": None, "z": "1/1"},
            {"id": "a", "parent": "r", "prob": "1/2", "z": "1/1"},
            {"id": "b", "parent": "r", "prob": "1/3", "z": "1/1"},
        ],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    assert main(["decompose", str(path)]) == 2
    err = capsys.readouterr().err
    assert "r" in err  # offending node named


@pytest.mark.parametrize(
    "command", [["decompose"], ["follmer"], ["uniqueness"], ["witness", "x"]], ids=lambda c: c[0]
)
@pytest.mark.parametrize(
    "values, named",
    [
        ({"r": 1, "u": Fraction(9, 4), "d": Fraction(-1, 4)}, "negative value at node 'd'"),
        ({"r": 2, "u": 3, "d": 1}, "initial value 2 != 1 at node 'r'"),
        ({"r": 1, "u": Fraction(3, 2), "d": Fraction(3, 4)}, "one-step mean 9/8 exceeds 1 at node 'r'"),
    ],
    ids=["negative", "initial-value", "mean-above"],
)
def test_exact_commands_refuse_a_non_supermartingale(tmp_path, capsys, command, values, named):
    tree, _ = binary_example()
    path = tmp_path / "tree.json"
    tree.to_json(str(path), AdaptedProcess({n: Fraction(v) for n, v in values.items()}))
    out = tmp_path / "out"
    assert main([command[0], str(path), *command[1:], "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: not a supermartingale: {named}\n"
    assert not out.exists()


def test_follmer_all_pass_ledger(binary_file, tmp_path):
    out = tmp_path / "out"
    assert main(["follmer", binary_file, "--out", str(out)]) == 0
    ledger = (out / "ky_ledger.csv").read_text().splitlines()
    assert ledger[0] == "rho_id,atom_node,lhs,rhs,equal"
    assert all(line.endswith("true") for line in ledger[1:])
    pair = FollmerPair.from_json(str(out / "pair.json"), FilteredTree.from_json(binary_file)[0])
    assert pair.total_mass() == 1


def test_follmer_freeze_on_martingale_refused(martingale_file, tmp_path, capsys):
    # follmer --target and witness build the freeze pair through one
    # function, which refuses a martingale before it checks the freeze state
    tree = FilteredTree(
        1,
        [
            {"id": "r", "parent": None, "state": "s"},
            {"id": "u", "parent": "r", "prob": "1/2", "state": "s"},
            {"id": "d", "parent": "r", "prob": "1/2", "state": "d"},
        ],
    )
    z = AdaptedProcess({"r": Fraction(1), "u": Fraction(3, 2), "d": Fraction(1, 2)})
    charged = tmp_path / "charged.json"
    tree.to_json(str(charged), z)
    # the path r, u sits at s through the horizon, so s is inadmissible too
    with pytest.raises(FreezeTargetError, match="collides with charged path r/u"):
        _check_freeze_admissible(tree, "s")
    for path, x_star in ((martingale_file, "x"), (charged, "x"), (charged, "s")):
        refusals = []
        for argv in (["follmer", str(path), "--target", x_star], ["witness", str(path), x_star]):
            code = main(argv + ["--out", str(tmp_path / argv[0])])
            refusals.append((code, capsys.readouterr().err))
        assert refusals[0] == refusals[1] == (
            2,
            f"error: freeze target {x_star!r} needs lost mass: Z is a martingale, "
            f"so the freeze pair would be the cemetery pair\n",
        )
    assert not (tmp_path / "follmer").exists() and not (tmp_path / "witness").exists()


def test_verify_detects_corruption(binary_file, tmp_path, capsys):
    tree, z = binary_example()
    pair = construct_follmer(tree, z)
    data = pair.to_dict()
    eps = Fraction(1, 100)
    for row in data["outcomes"]:
        if row["kill_time"] == "never" and row["history_node"] == "u":
            row["mass"] = str(Fraction(row["mass"]) + eps)
        if row["kill_time"] == "never" and row["history_node"] == "d":
            row["mass"] = str(Fraction(row["mass"]) - eps)
    bad_path = tmp_path / "bad_pair.json"
    bad_path.write_text(json.dumps(data))
    out = tmp_path / "out"
    assert main(["verify", binary_file, str(bad_path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "atom" in err  # failing atom named
    assert main(["verify", binary_file, str(bad_path.with_name("missing.json")), "--out", str(out)]) == 2


def _colliding_example():
    """Horizon-2 tree whose a-path sits at state d at times 1 and 2: d is no freeze state."""
    tree = FilteredTree(
        2,
        [
            {"id": "r", "parent": None},
            {"id": "a", "parent": "r", "prob": "1/2", "state": "d"},
            {"id": "b", "parent": "r", "prob": "1/2", "state": "u"},
            {"id": "aa", "parent": "a", "prob": "1/1", "state": "d"},
            {"id": "ba", "parent": "b", "prob": "1/1", "state": "u"},
        ],
    )
    values = {"r": 1, "a": Fraction(1, 2), "b": Fraction(3, 2), "aa": Fraction(1, 4), "ba": Fraction(3, 2)}
    return tree, AdaptedProcess({n: Fraction(v) for n, v in values.items()})


def _pair_files(tmp_path, edit, case=binary_example):
    """A case's tree file and its cemetery pair, edited in its dict form and written to a file."""
    tree, z = case()
    tree_path = tmp_path / "tree.json"
    tree.to_json(str(tree_path), z)
    data = construct_follmer(tree, z).to_dict()
    edit(data)
    path = tmp_path / "edited_pair.json"
    path.write_text(json.dumps(data))
    return str(tree_path), str(path)


def _freeze_at_d(data):
    data["target"] = "d"
    for row in data["outcomes"]:
        if row["target"] == "cemetery":
            row["target"] = "d"


def _row(data, node, alive):
    return next(
        r for r in data["outcomes"]
        if r["history_node"] == node and (r["kill_time"] == "never") == alive
    )


def _hide_negative_killed_row_at_u(data):
    """A killed row at the leaf u with mass -1/8, which the survivor row at u makes up."""
    _row(data, "u", True).update(mass="7/8")
    data["outcomes"].append({"history_node": "u", "kill_time": 2, "target": "cemetery", "mass": "-1/8"})


def _split_root_between_targets(data):
    """The mass killed at r, half at the pair's target and half at another."""
    _row(data, "r", False).update(mass="1/16")
    data["outcomes"].append({"history_node": "r", "kill_time": 1, "target": "x", "mass": "1/16"})


def _unknown_node_then_layout_fault(data):
    data["outcomes"][0].update(history_node="nowhere")
    _row(data, "u", True).update(target="banana")


def _layout_fault_then_malformed_row(data):
    _row(data, "r", False).update(kill_time=7)
    data["outcomes"].append({"history_node": "u", "kill_time": "never", "target": None})


# the ledger of the binary example's valid pair: every atom equal
_BINARY_LEDGER = "1ed37de0794ae8417e215694a3e7d564669e05447ca8186f6bea6a189356663a"


# each case's exit code, whole stderr and the SHA-256 of ky_ledger.csv (None
# where none is written); a row's mass counts at its node in the ledger, so
# the ledger of a broken pair keeps every row
@pytest.mark.parametrize(
    "case, edit, code, err, ledger",
    [
        (binary_example, lambda d: _row(d, "r", False).update(kill_time=7), 1,
            'verification failed: outcome (history r, kill time 7, target cemetery) must be killed at time depth+1 = 1 within the horizon 1\n',
            _BINARY_LEDGER,
        ),
        (binary_example, lambda d: _row(d, "r", False).update(target="banana"), 1,
            "verification failed: outcome (history r, kill time 1, target banana) is not killed at the pair's target cemetery\n",
            _BINARY_LEDGER,
        ),
        (binary_example, lambda d: _row(d, "r", False).update(kill_time="never", target=None), 1,
            'verification failed: outcome (history r, kill time never, target None) survives at a node that is not a leaf\n',
            _BINARY_LEDGER,
        ),
        (binary_example, lambda d: _row(d, "u", True).update(mass="-3/4"), 1,
            'verification failed: outcome (history u, kill time never, target None) has negative mass -3/4\nverification failed at stopping time t0, atom r: -1/2 != 1/1\n',
            "e76fb9d6904ee39abc1a4fb0b3edaa7dc02bf4347077002526368ea3a52a4086",
        ),
        (binary_example, lambda d: _row(d, "u", True).update(mass="1/1"), 1,
            'verification failed: outcome masses sum to 5/4, not 1\nverification failed at stopping time t0, atom r: 5/4 != 1/1\n',
            "d1e81ea17a78c756cd44966f7b7eb386ca957c24b7ec5c33ea9345413825a501",
        ),
        (binary_example, lambda d: _row(d, "u", True).update(target="banana"), 1,
            'verification failed: outcome (history u, kill time never, target banana) survives, so it can have no target\n',
            _BINARY_LEDGER,
        ),
        # the freeze pair that `follmer --target d` refuses to build
        (_colliding_example, _freeze_at_d, 1,
            "verification failed: freeze state 'd' collides with charged path r/a/aa: it sits at 'd' for 2 consecutive times through the horizon\n",
            "9f05424c662b4e603201648036c8b212511e8a663cc296cbf398f7642d004ea9",
        ),
        (binary_example, _split_root_between_targets, 1,
            "verification failed: outcome (history r, kill time 1, target x) is not killed at the pair's target cemetery\n",
            _BINARY_LEDGER,
        ),
        (binary_example, _hide_negative_killed_row_at_u, 1,
            'verification failed: outcome (history u, kill time 2, target cemetery) has negative mass -1/8\n',
            _BINARY_LEDGER,
        ),
        (binary_example, _unknown_node_then_layout_fault, 2,
            "error: outcome (history nowhere, kill time 1, target cemetery) names node 'nowhere', which the tree lacks\n",
            None,
        ),
        (binary_example, _layout_fault_then_malformed_row, 2,
            "error: malformed outcome {'history_node': 'u', 'kill_time': 'never', 'target': None}: KeyError('mass')\n",
            None,
        ),
    ],
    ids=[
        "kill-time", "target", "survivor-off-leaf", "negative-mass", "mass-sum", "survivor-target",
        "colliding-freeze-state", "two-targets-at-a-node", "hidden-negative-row", "unknown-node-first",
        "malformed-row-after-layout-fault",
    ],
)
def test_verify_rejects_invalid_outcome_space(tmp_path, capsys, case, edit, code, err, ledger):
    tree_file, pair_file = _pair_files(tmp_path, edit, case)
    out = tmp_path / "out"
    assert main(["verify", tree_file, pair_file, "--out", str(out)]) == code
    captured = capsys.readouterr()
    assert captured.err == err
    assert "stopping times verified" not in captured.out
    ledger_file = out / "ky_ledger.csv"
    assert (sha256(ledger_file.read_bytes()).hexdigest() if ledger_file.exists() else None) == ledger


def _numbered_ids_example():
    """The root r and two children whose tree-file ids are the number 5 and null, read as '5' and 'None'."""
    tree = FilteredTree(
        1,
        [
            {"id": "r", "parent": None},
            {"id": 5, "parent": "r", "prob": "1/2", "state": "u"},
            {"id": None, "parent": "r", "prob": "1/2", "state": "d"},
        ],
    )
    return tree, AdaptedProcess({"r": Fraction(1), "5": Fraction(1), "None": Fraction(1, 2)})


def _numbered_history_nodes(data):
    """The rows at '5' and 'None' name their nodes by the number 5 and null, the ids the tree was given."""
    for row in data["outcomes"]:
        row["history_node"] = {"5": 5, "None": None}.get(row["history_node"], row["history_node"])


@pytest.mark.parametrize(
    "case, edit, named",
    [
        (binary_example, lambda d: _row(d, "u", True).update(history_node="nowhere"), "names node 'nowhere'"),
        (binary_example, lambda d: d.pop("outcomes"), "needs an 'outcomes' list"),
        (binary_example, lambda d: _row(d, "u", True).pop("mass"), "'history_node': 'u'"),
        (binary_example, lambda d: d["outcomes"].append(dict(_row(d, "r", False))), "(history r, kill time 1, target cemetery) is listed twice"),
        (binary_example, lambda d: _row(d, "r", False).update(kill_time=math.inf), "kill_time inf"),
        (binary_example, lambda d: _row(d, "r", False).update(target=[1]), "target [1] is not a string"),
        (binary_example, lambda d: _row(d, "r", False).update(kill_time=1.9), "kill_time 1.9"),
        (binary_example, lambda d: _row(d, "r", False).update(kill_time=True), "kill_time True"),
        (binary_example, lambda d: _row(d, "r", False).update(kill_time="1"), "kill_time '1'"),
        (binary_example, lambda d: _row(d, "r", False).update(kill_time=None), "kill_time None"),
        (binary_example, lambda d: _row(d, "u", True).update(mass="1e-5000"), "'history_node': 'u'"),
        (binary_example, lambda d: _row(d, "u", True).update(history_node=None), "history_node None is not a string"),
        (binary_example, lambda d: _row(d, "u", True).update(history_node=5), "history_node 5 is not a string"),
        (binary_example, lambda d: _row(d, "u", True).update(history_node=["u"]), "history_node ['u'] is not a string"),
        (_numbered_ids_example, _numbered_history_nodes, "history_node 5 is not a string"),
    ],
    ids=[
        "unknown-node", "no-outcomes", "row-without-mass", "duplicate-row", "infinite-kill-time", "list-target",
        "fractional-kill-time", "bool-kill-time", "string-kill-time", "null-kill-time", "exponent-mass",
        "null-node", "number-node", "list-node", "numbered-tree-ids",
    ],
)
def test_verify_malformed_pair_exits_2(tmp_path, capsys, case, edit, named):
    tree_file, pair_file = _pair_files(tmp_path, edit, case)
    assert main(["verify", tree_file, pair_file, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err


def test_follmer_prints_huge_stopping_time_count(tmp_path, capsys):
    # full binary tree of depth 14: about 2^19257 stopping times, far past
    # the digits Python will print, so the count is reported by bit length
    nodes, level, values = [{"id": "n", "parent": None}], ["n"], {"n": Fraction(1)}
    for t in range(1, 15):
        nxt = []
        for par in level:
            for side in "01":
                nodes.append({"id": par + side, "parent": par, "prob": "1/2"})
                values[par + side] = Fraction(1, 2**t)
                nxt.append(par + side)
        level = nxt
    path = tmp_path / "deep.json"
    FilteredTree(14, nodes).to_json(str(path), AdaptedProcess(values))
    assert main(["follmer", str(path), "--out", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "all 2^19257+ stopping times verified"
    ledger = (tmp_path / "out" / "ky_ledger.csv").read_text().splitlines()
    assert len(ledger) == 1 + len(nodes)


@pytest.mark.parametrize(
    "argv",
    [
        ["follmer", "--cap", "10"],
        ["verify", "--grid-step", "0.1"],
        ["decompose", "--seed", "1"],
        ["witness", "--paths", "10"],
        ["mc", "--seed", "1"],
        ["mc", "--paths", "10"],
    ],
)
def test_unread_flags_are_rejected(binary_file, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv[:1] + [binary_file] + argv[1:])
    assert exc.value.code == 2


def test_uniqueness_report_file(binary_file, tmp_path):
    out = tmp_path / "out"
    assert main(["uniqueness", binary_file, "--out", str(out)]) == 0
    rep = json.loads((out / "uniqueness.json").read_text())
    assert sorted(rep) == ["mass_lost", "unique_pair"]
    assert rep["mass_lost"] == "1/8"
    assert rep["unique_pair"] is False


def test_witness_writes_two_pairs(binary_file, tmp_path):
    out = tmp_path / "out"
    assert main(["witness", binary_file, "u", "--out", str(out)]) == 0
    w = json.loads((out / "witness.json").read_text())
    assert w["total_variation"] == "1/8"
    assert (out / "pair_cemetery.json").exists()
    assert (out / "pair_freeze.json").exists()


def test_witness_on_martingale_exits_2(martingale_file, tmp_path):
    assert main(["witness", martingale_file, "x", "--out", str(tmp_path / "o")]) == 2


def test_witness_with_cemetery_as_freeze_state_exits_2(binary_file, tmp_path, capsys):
    # the binary example is a strict supermartingale, but a freeze state named
    # like the cemetery would build the cemetery pair twice and witness nothing
    out = tmp_path / "o"
    assert main(["witness", binary_file, "cemetery", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: freeze state 'cemetery' is the cemetery")
    assert not (out / "witness.json").exists()


def test_follmer_empty_target_freezes_like_witness(binary_file, tmp_path):
    # an empty label is a freeze state like any other, not a request for the cemetery
    follmer_out, witness_out = tmp_path / "f", tmp_path / "w"
    assert main(["follmer", binary_file, "--target", "", "--out", str(follmer_out)]) == 0
    assert main(["witness", binary_file, "", "--out", str(witness_out)]) == 0
    frozen = (follmer_out / "pair.json").read_bytes()
    assert frozen == (witness_out / "pair_freeze.json").read_bytes()
    assert frozen != (witness_out / "pair_cemetery.json").read_bytes()


def test_mc_manifest_replay_byte_identical(tmp_path):
    manifest = {
        "experiment": "exp_decay",
        "seed": 1234,
        "n_paths": 5000,
        "params": {"ts": [0.5, 1.0]},
    }
    mpath = tmp_path / "manifest.json"
    mpath.write_text(json.dumps(manifest))
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["mc", str(mpath), "--out", str(out1)]) == 0
    assert main(["mc", str(mpath), "--out", str(out2)]) == 0
    for name in ("results.csv", "plot.csv", "report.json", "manifest.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_mc_unknown_experiment_exits_2(tmp_path, capsys):
    mpath = tmp_path / "manifest.json"
    mpath.write_text(json.dumps({"experiment": "nope", "seed": 1, "n_paths": 10}))
    assert main(["mc", str(mpath)]) == 2


def test_gallery_exp_decay_matches_law(tmp_path):
    out = tmp_path / "g"
    assert main(["gallery", "exp_decay", "--paths", "20000", "--seed", "7", "--out", str(out)]) == 0
    rows = (out / "results.csv").read_text().splitlines()
    header = rows[0].split(",")
    t_i = header.index("t")
    est_i = header.index("estimate")
    lo_i = header.index("ci_low")
    hi_i = header.index("ci_high")
    ana_i = header.index("analytic")
    for line in rows[1:]:
        cells = line.split(",")
        est, lo, hi, ana = (float(cells[i]) for i in (est_i, lo_i, hi_i, ana_i))
        half = (hi - est) / 1.96
        assert abs(est - ana) <= 3 * half


def test_gallery_unknown_name_exits_2(tmp_path):
    assert main(["gallery", "nope", "--out", str(tmp_path)]) == 2


def test_gallery_runs_every_experiment_name(tmp_path, capsys):
    # the same names as `mc`, each with its default parameters
    assert main(["gallery", "bm_check", "--paths", "10", "--out", str(tmp_path)]) == 0
    assert (tmp_path / "results.csv").exists()
    assert main(["gallery", "nope", "--out", str(tmp_path / "no")]) == 2
    assert str(sorted(PARAMS)) in capsys.readouterr().err


def _run_cli(argv, cwd):
    src = os.path.dirname(os.path.dirname(follmer_lab.__file__))
    return subprocess.run(
        [sys.executable, "-m", "follmer_lab.cli", *argv],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=dict(os.environ, PYTHONPATH=src),
    )


@pytest.mark.parametrize(
    "argv, manifest",
    [
        (["mc", "manifest.json"], {"experiment": "bm_check", "seed": 1, "n_paths": 1}),
        (["gallery", "exp_decay", "--paths", "0"], None),
        (["gallery", "exp_decay", "--paths", "1"], None),
    ],
    ids=["mc-bm_check-1", "gallery-0", "gallery-1"],
)
def test_too_few_paths_exits_2_without_traceback(tmp_path, argv, manifest):
    if manifest is not None:
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    proc = _run_cli(argv + ["--out", "out"], tmp_path)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "n_paths >= 2" in proc.stderr
    assert not (tmp_path / "out" / "results.csv").exists()


@pytest.mark.parametrize(
    "argv, text",
    [
        (["decompose", "deep.json"], '{"horizon": 1, "nodes": %s}'),
        (["verify", "tree.json", "deep.json"], '{"target": "cemetery", "outcomes": %s}'),
        (["mc", "deep.json"], '{"experiment": "exp_decay", "seed": 1, "n_paths": 10, "params": %s}'),
    ],
    ids=["tree", "pair", "manifest"],
)
def test_deeply_nested_json_exits_2_without_traceback(tmp_path, argv, text):
    # nested past the parser's recursion limit, which json.load reports as a RecursionError
    tree, z = binary_example()
    tree.to_json(str(tmp_path / "tree.json"), z)
    (tmp_path / "deep.json").write_text(text % ("[" * 100000 + "]" * 100000))
    proc = _run_cli(argv + ["--out", "out"], tmp_path)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr == "error: deep.json: JSON nested too deeply to read\n"


@pytest.mark.parametrize(
    "data, reason",
    [
        (b'{"outcomes": [1,}', "Expecting value: line 1 column 17 (char 16)"),
        (b"\xff\xfe{}", "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
    ],
    ids=["syntax", "encoding"],
)
@pytest.mark.parametrize(
    "argv", [["decompose", "bad.json"], ["verify", "tree.json", "bad.json"], ["mc", "bad.json"]],
    ids=["tree", "pair", "manifest"],
)
def test_unreadable_json_names_its_file(tmp_path, argv, data, reason):
    tree, z = binary_example()
    tree.to_json(str(tmp_path / "tree.json"), z)
    (tmp_path / "bad.json").write_bytes(data)
    proc = _run_cli(argv + ["--out", "out"], tmp_path)
    assert proc.returncode == 2
    assert proc.stderr == f"error: bad.json: {reason}\n"


def test_single_jump_off_grid_mid_time_exits_2_without_traceback(tmp_path):
    manifest = {"experiment": "single_jump", "seed": 1, "n_paths": 10, "params": {"m": 40}}
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    proc = _run_cli(["mc", "manifest.json", "--out", "out"], tmp_path)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    mid = 1.0 - 2.0**-40 / 2.0
    assert f"time {mid} is not a grid point" in proc.stderr


def test_selftest_passes(capsys):
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert "selftest ok" in out
    assert "PASS dyadic level measures agree" in out
    assert out.count("PASS additive identity and multiplicative uniqueness") == 5


@pytest.mark.parametrize(
    "fields, named",
    [
        (
            {"experiment": "fatou", "params": {"probes": [0.5, 0.5000000000001]}},
            "time 0.5 is not a grid point",
        ),
        ({"experiment": "exp_decay", "params": {"ts": [0]}}, "ts entry 0 is not a positive number"),
        ({"experiment": "exp_decay", "params": {"ts": ["a"]}}, "ts entry 'a' is not a positive number"),
        ({"experiment": "reciprocal_bessel", "params": {"ts": [-1]}}, "ts entry -1 is not a positive number"),
        ({"experiment": "reciprocal_bessel", "params": {"fp_steps": 0}}, "fp_steps must be at least 1"),
        ({"experiment": "single_jump", "params": {"m": None}}, "m must be an integer, got None"),
        ({"experiment": "extended", "params": {"h": None}}, "h must be a finite number, got None"),
        ({"experiment": "suicide", "params": {"jumps": None}}, "jumps must be a nonempty list, got None"),
        ({"experiment": "fatou", "params": {"m_list": 5}}, "m_list must be a nonempty list, got 5"),
        ({"experiment": "mass_redirect", "params": {"ls": [None]}}, "ls entry None is not an integer"),
        ({"experiment": "mass_redirect", "params": [1, 2]}, "params must be an object or null, got [1, 2]"),
        (
            {"experiment": "bm_check", "params": {"bogus": 3}},
            "no parameter 'bogus'; it accepts ['base_step', 't_max']",
        ),
        ({"experiment": "single_jump", "params": {"m": 2.9}}, "m must be an integer, got 2.9"),
        ({"experiment": "split_limit", "params": {"n": True}}, "n must be an integer, got True"),
        ({"experiment": "split_limit", "params": {"n": "3"}}, "n must be an integer, got '3'"),
        ({"experiment": "bm_check", "seed": None}, "seed must be an integer, got None"),
        ({"experiment": "bm_check", "seed": 1.7}, "seed must be an integer, got 1.7"),
        ({"experiment": "bm_check", "n_paths": None}, "n_paths must be an integer, got None"),
        ({"experiment": "single_jump", "params": {"m": -3000}}, "m must be at least 1, got -3000"),
        ({"experiment": "split_limit", "params": {"n": 2000}}, "need n <= 372, got 2000"),
        ({"experiment": "mass_redirect", "params": {"k": -1100}}, "k must be at least 0, got -1100"),
        ({"experiment": "mass_redirect", "params": {"k": 1100}}, "k must be at most 16, got 1100"),
        ({"experiment": "extended", "params": {"k": 1100}}, "k must be at most 16, got 1100"),
        ({"experiment": "fatou", "params": {"m_list": [3000]}}, "m_list must be at most 16, got 3000"),
        ({"experiment": "suicide", "params": {"m": 52}}, "m must be at most 51, got 52"),
        ({"experiment": "fatou", "params": {"scan_depth": 0}}, "scan_depth must be at least 1, got 0"),
        ({"experiment": "fatou", "params": {"scan_depth": 1075}}, "scan_depth must be at most 1074, got 1075"),
        ({"experiment": "single_jump", "params": {"refine_points": 0}}, "refine_points must be at least 1, got 0"),
        # a backbone numpy refuses to allocate
        ({"experiment": "bm_check", "params": {"t_max": 1e300}}, "t_max=1e+300 / base_step=0.03125"),
        # the library's own range rules
        ({"experiment": "single_jump", "params": {"a": 1.0}}, "need 0 <= a < 1, got 1.0"),
        ({"experiment": "mass_redirect", "params": {"c": 1.0}}, "need 0 <= c < 1, got 1.0"),
        ({"experiment": "mass_redirect", "params": {"level": 0.5}}, "level 0.5 must exceed the start 1.0"),
        ({"experiment": "mass_redirect", "params": {"m": 1}}, "burn-in windows overlap"),
        ({"experiment": "suicide", "params": {"levels": [1.0, 0.5, 0.75]}}, "levels must be nonincreasing"),
        ({"experiment": "suicide", "params": {"jumps": [0.0, 2.0]}}, "jump times must be positive"),
        ({"experiment": "suicide", "params": {"levels": [1.0, 0.5]}}, "need one more level than jump times"),
        ({"experiment": "suicide", "params": {"levels": [1.0, 0.5, -0.25]}}, "levels must be nonnegative"),
        ({"experiment": "split_limit", "params": {"n": 373}}, "need n <= 372, got 373"),
        ({"experiment": "extended", "params": {"h": 0}}, "the cut at h=0.0 must fall after time 0"),
        ({"experiment": "extended", "params": {"h": 1.4}}, "its burn-in ends at 1.515625"),
        (
            {"experiment": "fatou", "params": {"probes": [0.375, 0.375], "m_list": [1, 2, 3, 4]}},
            "probe 0.375 is repeated",
        ),
        (
            {"experiment": "mass_redirect", "n_paths": 200, "params": {"ls": [1, 2, 1]}},
            "level 1 is repeated: each level must be given once",
        ),
    ],
    ids=[
        "fatou-twin-probes", "exp_decay-ts-0", "exp_decay-ts-str", "bessel-ts-neg", "bessel-fp-0",
        "single_jump-m-null", "extended-h-null", "suicide-jumps-null", "fatou-m_list-int",
        "mass_redirect-ls-null-entry", "params-list", "bm_check-unknown-key", "single_jump-m-2.9",
        "split_limit-n-true", "split_limit-n-str", "seed-null", "seed-1.7", "n_paths-null",
        "single_jump-m-neg", "split_limit-n-2000", "mass_redirect-k-neg", "mass_redirect-k-1100",
        "extended-k-1100", "fatou-m_list-3000", "suicide-m-52", "fatou-scan_depth-0",
        "fatou-scan_depth-1075", "single_jump-refine_points-0", "bm_check-t_max-1e300",
        "single_jump-a-1", "mass_redirect-c-1", "mass_redirect-level-0.5", "mass_redirect-m-1",
        "suicide-levels-increasing", "suicide-jump-at-0", "suicide-levels-count", "suicide-level-negative",
        "split_limit-n-373", "extended-h-0", "extended-h-1.4", "fatou-probe-repeated",
        "mass_redirect-level-repeated",
    ],
)
def test_bad_experiment_params_exit_2_without_traceback(tmp_path, fields, named):
    manifest = {"seed": 1, "n_paths": 10, "params": {}, **fields}
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    proc = _run_cli(["mc", "manifest.json", "--out", "out"], tmp_path)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert named in proc.stderr
    assert not (tmp_path / "out" / "results.csv").exists()


class _RefusingNumpy:
    """numpy, except that ``empty`` and ``arange`` refuse more than 10^9 elements as an exhausted allocator does."""

    def __getattr__(self, name):
        return getattr(np, name)

    @staticmethod
    def empty(shape, *args, **kwargs):
        if math.prod(shape if isinstance(shape, tuple) else (shape,)) > 10**9:
            raise MemoryError(f"Unable to allocate an array with shape {shape}")
        return np.empty(shape, *args, **kwargs)

    @staticmethod
    def arange(start, stop, step=1, **kwargs):
        if (stop - start) / step > 10**9:
            raise MemoryError("Unable to allocate an array for arange")
        return np.arange(start, stop, step, **kwargs)


@pytest.mark.parametrize(
    "manifest",
    [
        {"experiment": "exp_decay", "seed": 1, "n_paths": 10**12, "params": {}},
        {"experiment": "reciprocal_bessel", "seed": 1, "n_paths": 10, "params": {"fp_steps": 10**10}},
    ],
    ids=["exp_decay-n_paths-1e12", "bessel-fp_steps-1e10"],
)
def test_out_of_memory_exits_2(tmp_path, monkeypatch, capsys, manifest):
    # the refusal is simulated: whether a host refuses a real oversized
    # allocation depends on its overcommit setting
    monkeypatch.setattr(streams, "np", _RefusingNumpy())
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    assert main(["mc", str(tmp_path / "manifest.json"), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory: Unable to allocate an array with shape (")
    assert not (tmp_path / "out" / "results.csv").exists()


def test_backbone_out_of_memory_names_t_max_and_base_step(tmp_path, monkeypatch, capsys):
    # simulated for the same reason as above; the size numpy itself refuses
    # is a case of test_bad_experiment_params_exit_2_without_traceback
    monkeypatch.setattr(grids, "np", _RefusingNumpy())
    manifest = {"experiment": "bm_check", "seed": 1, "n_paths": 10, "params": {"t_max": 1e11, "base_step": 1}}
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    assert main(["mc", str(tmp_path / "manifest.json"), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == "error: cannot allocate t_max=100000000000.0 / base_step=1.0 backbone points\n"


def test_mc_manifest_echoes_params_as_given(tmp_path):
    # an integer for a float parameter, no defaults filled in, and a null params
    for params in ({"t_max": 2}, None):
        manifest = {"experiment": "bm_check", "seed": 3, "n_paths": 10, "params": params}
        (tmp_path / "in.json").write_text(json.dumps(manifest))
        assert main(["mc", str(tmp_path / "in.json"), "--out", str(tmp_path / "out")]) == 0
        assert json.loads((tmp_path / "out" / "manifest.json").read_text()) == manifest


@pytest.mark.parametrize(
    "experiment, params",
    [("bm_check", {"t_max": 5.4, "base_step": 0.15}), ("single_jump", {"t_max": 7.7, "base_step": 0.7})],
    ids=["bm_check", "single_jump"],
)
def test_t_max_beside_a_backbone_time_one_ulp_below_exits_0(tmp_path, capsys, experiment, params):
    # np.arange's backbone ends one ulp below t_max here, so the grid holds
    # two times within 1e-12 of t_max; t_max is still the grid's last time
    from follmer_lab.mc.grids import GridSpec

    times = GridSpec(t_max=params["t_max"], base_step=params["base_step"]).points()
    assert times[-1] == params["t_max"] and params["t_max"] - times[-2] < 1e-12
    manifest = {"experiment": experiment, "seed": 1, "n_paths": 10, "params": params}
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    assert main(["mc", str(tmp_path / "manifest.json"), "--out", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().err.count("error") == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())["report"]
    if experiment == "single_jump":
        assert report["exact_a_from_anchor"] is True


# One wrong-typed value: never a well-typed one, so no example runs an experiment.
_WRONG_SCALAR = st.one_of(
    st.none(),
    st.booleans(),
    st.text(max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
    st.sampled_from([math.nan, math.inf, -math.inf]),
)
_WRONG = st.one_of(_WRONG_SCALAR, st.lists(_WRONG_SCALAR, min_size=1, max_size=3))


@st.composite
def _mistyped_manifests(draw):
    name = draw(st.sampled_from(sorted(PARAMS)))
    manifest = {"experiment": name, "seed": 1, "n_paths": 10, "params": {}}
    field = draw(st.sampled_from(["experiment", "seed", "n_paths", "params", "a parameter"]))
    if field == "a parameter":
        manifest["params"] = {draw(st.sampled_from(sorted(PARAMS[name]))): draw(_WRONG)}
    elif field == "params":  # null and objects are valid params
        manifest["params"] = draw(_WRONG.filter(lambda v: v is not None and not isinstance(v, dict)))
    else:
        manifest[field] = draw(_WRONG)
    return manifest


@settings(derandomize=True, max_examples=100, deadline=None)
@given(manifest=_mistyped_manifests())
def test_mistyped_manifest_exits_2_before_any_draw(manifest):
    def no_draws(*args):
        raise AssertionError("drew a path before validating the manifest")

    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.setattr(streams, "stream_state", no_draws)
        mp.setattr(streams, "uniform_words", no_draws)
        path = os.path.join(tmp, "manifest.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(manifest, fh)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["mc", path, "--out", os.path.join(tmp, "out")])
    assert code == 2
    assert err.getvalue().startswith("error: ")


# -- one parser per process --------------------------------------------------------

REUSE_SESSION = [
    ["decompose", "--no-such-flag"],
    ["decompose", "--help"],
    ["decompose", "binary.json", "--out", "decompose"],
    ["follmer", "binary.json", "--out", "follmer"],
    ["uniqueness", "binary.json", "--out", "uniqueness"],
    ["verify", "binary.json", "follmer/pair.json", "--out", "verify"],
]


@pytest.fixture
def parsers_built(monkeypatch):
    """Count ``ArgumentParser`` constructions, subparsers included, from a cleared parser cache."""
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli._parser.cache_clear()
    yield built
    cli._parser.cache_clear()


def _run_session(directory, built, fresh):
    """Run ``REUSE_SESSION`` in ``directory``; ``fresh`` rebuilds the parser before each call.

    Returns each call's exit code, stdout, stderr and parsers built so far,
    and the bytes of every file the session leaves.
    """
    tree, z = binary_example()
    tree.to_json(str(directory / "binary.json"), z)
    calls = []
    with contextlib.chdir(directory):
        for argv in REUSE_SESSION:
            if fresh:
                cli._parser.cache_clear()
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli.main(argv)
                except SystemExit as exc:
                    code = exc.code
            calls.append((code, out.getvalue(), err.getvalue(), len(built)))
    files = {
        str(p.relative_to(directory)): p.read_bytes() for p in sorted(directory.rglob("*")) if p.is_file()
    }
    return calls, files


def test_reusing_the_parser_is_invisible(tmp_path, parsers_built):
    (tmp_path / "fresh").mkdir()
    (tmp_path / "shared").mkdir()
    fresh, fresh_files = _run_session(tmp_path / "fresh", parsers_built, fresh=True)
    per_call = fresh[0][3]
    assert per_call > 1  # the counter sees the subparsers as well
    assert [c[3] for c in fresh] == [per_call * (k + 1) for k in range(len(REUSE_SESSION))]

    parsers_built.clear()
    cli._parser.cache_clear()
    shared, shared_files = _run_session(tmp_path / "shared", parsers_built, fresh=False)
    # the first call builds every parser, and no later call builds one
    assert [c[3] for c in shared] == [per_call] * len(REUSE_SESSION)
    assert [c[:3] for c in shared] == [c[:3] for c in fresh]
    assert [c[0] for c in shared] == [2, 0, 0, 0, 0, 0]
    assert "decompose/decomposition.json" in shared_files
    assert shared_files == fresh_files


def test_the_shared_parser_reaches_a_patched_handler(binary_file, monkeypatch, parsers_built):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["uniqueness", binary_file, "--out", os.path.dirname(binary_file)]) == 0
    seen = []

    def patched(args):
        seen.append(args.tree_file)
        return 7

    monkeypatch.setattr(cli, "cmd_decompose", patched)
    n_built = len(parsers_built)
    assert main(["decompose", binary_file]) == 7
    assert seen == [binary_file]
    assert len(parsers_built) == n_built
