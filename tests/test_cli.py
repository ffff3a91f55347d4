"""CLI exit-code contract, file outputs, replay determinism."""

import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import follmer_lab
from follmer_lab.cli import main
from follmer_lab.corpus import binary_example
from follmer_lab.follmer import FollmerPair, construct_follmer
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


def test_follmer_all_pass_ledger(binary_file, tmp_path):
    out = tmp_path / "out"
    assert main(["follmer", binary_file, "--out", str(out)]) == 0
    ledger = (out / "ky_ledger.csv").read_text().splitlines()
    assert ledger[0] == "rho_id,atom_node,lhs,rhs,equal"
    assert all(line.endswith("true") for line in ledger[1:])
    pair = FollmerPair.from_json(str(out / "pair.json"))
    assert pair.total_mass() == 1


def test_follmer_freeze_on_martingale_refused(martingale_file, tmp_path, capsys):
    assert main(["follmer", martingale_file, "--target", "x", "--out", str(tmp_path / "o")]) == 2
    assert "martingale" in capsys.readouterr().err


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


def _binary_pair_file(tmp_path, edit):
    """The binary example's pair, edited in its dict form and written to a file."""
    tree, z = binary_example()
    data = construct_follmer(tree, z).to_dict()
    edit(data)
    path = tmp_path / "edited_pair.json"
    path.write_text(json.dumps(data))
    return str(path)


def _row(data, node, alive):
    return next(
        r for r in data["outcomes"]
        if r["history_node"] == node and (r["kill_time"] == "never") == alive
    )


@pytest.mark.parametrize(
    "edit, named",
    [
        (lambda d: _row(d, "r", False).update(kill_time=7), "kill time 7"),
        (lambda d: _row(d, "r", False).update(target="banana"), "target banana"),
        (lambda d: _row(d, "r", False).update(kill_time="never", target=None), "not a leaf"),
        (lambda d: _row(d, "u", True).update(mass="-3/4"), "negative mass"),
        (lambda d: _row(d, "u", True).update(mass="1/1"), "sum to 5/4"),
    ],
    ids=["kill-time", "target", "survivor-off-leaf", "negative-mass", "mass-sum"],
)
def test_verify_rejects_invalid_outcome_space(binary_file, tmp_path, capsys, edit, named):
    pair_file = _binary_pair_file(tmp_path, edit)
    assert main(["verify", binary_file, pair_file, "--out", str(tmp_path / "out")]) == 1
    captured = capsys.readouterr()
    assert "verification failed" in captured.err and named in captured.err
    assert "stopping times verified" not in captured.out


@pytest.mark.parametrize(
    "edit",
    [
        lambda d: _row(d, "u", True).update(history_node="nowhere"),
        lambda d: d.pop("outcomes"),
        lambda d: _row(d, "u", True).pop("mass"),
        lambda d: d["outcomes"].append(dict(_row(d, "r", False))),
    ],
    ids=["unknown-node", "no-outcomes", "row-without-mass", "duplicate-row"],
)
def test_verify_malformed_pair_exits_2(binary_file, tmp_path, capsys, edit):
    pair_file = _binary_pair_file(tmp_path, edit)
    assert main(["verify", binary_file, pair_file, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("error: ")


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
    assert rep["mass_lost"] == "1/8"
    assert rep["witness_available"] is True


def test_witness_writes_two_pairs(binary_file, tmp_path):
    out = tmp_path / "out"
    assert main(["witness", binary_file, "u", "--out", str(out)]) == 0
    w = json.loads((out / "witness.json").read_text())
    assert w["total_variation"] == "1/8"
    assert (out / "pair_cemetery.json").exists()
    assert (out / "pair_freeze.json").exists()


def test_witness_on_martingale_exits_2(martingale_file, tmp_path):
    assert main(["witness", martingale_file, "x", "--out", str(tmp_path / "o")]) == 2


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


def test_single_jump_off_grid_mid_time_exits_2_without_traceback(tmp_path):
    manifest = {"experiment": "single_jump", "seed": 1, "n_paths": 10, "params": {"m": 40}}
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    proc = _run_cli(["mc", "manifest.json", "--out", "out"], tmp_path)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    mid = 1.0 - 2.0**-40 / 2.0
    assert f"time {mid} is not a grid point" in proc.stderr


def test_selftest_passes(tmp_path, capsys):
    assert main(["selftest", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "selftest ok" in out
