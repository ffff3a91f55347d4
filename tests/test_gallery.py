"""Gallery experiments: closed-form laws and exact separation values."""

import math

import numpy as np
import pytest
from scipy.special import ndtr

from follmer_lab.errors import FollmerLabError
from follmer_lab.mc.gallery import read_manifest, run_experiment, write_manifest


def test_exp_decay_survival_matches_exponential():
    res = run_experiment("exp_decay", seed=21, n_paths=50000, params=None)
    for row in res.rows:
        half = (row["ci_high"] - row["estimate"]) / 1.96
        assert abs(row["estimate"] - row["analytic"]) <= 3 * half
        assert row["analytic"] == math.exp(-row["t"])


def test_reciprocal_bessel_identity():
    res = run_experiment(
        "reciprocal_bessel", seed=5, n_paths=20000, params={"ts": [0.5, 1.0]}
    )
    for row in res.rows:
        half = (row["ci_high"] - row["estimate"]) / 1.96
        analytic = 2.0 * ndtr(1.0 / math.sqrt(row["t"])) - 1.0
        # closed form against the reciprocal-process mean
        assert abs(row["estimate"] - analytic) <= 4 * half
        # and against the independent bridge-corrected first-passage oracle
        oracle = row["survival_oracle"]
        ose = row["survival_oracle_se"]
        tol = 4 * math.hypot(half, ose) + 0.01  # oracle has its own grid bias
        assert abs(row["estimate"] - oracle) <= tol


def test_uniform_rho_full_separation():
    res = run_experiment("uniform_rho", seed=3, n_paths=8000, params=None)
    by_family = {row["family"]: row["estimate"] for row in res.rows}
    assert by_family["pre_burn_at_rho"] == 0.0  # exactly at its anchor
    assert by_family["post_burn_at_rho"] == 1.0  # exactly at its window start
    assert res.report["separation"] > 0.9


def test_gallery_names():
    res = run_experiment("exp_decay", seed=1, n_paths=2000, params=None)
    assert res.name == "exp_decay"
    with pytest.raises(FollmerLabError):
        run_experiment("nope", seed=1, n_paths=2000, params=None)


def test_manifest_round_trip(tmp_path):
    path = str(tmp_path / "m.json")
    write_manifest(path, "exp_decay", 7, 100, {"ts": [1.0]})
    m = read_manifest(path)
    assert m["experiment"] == "exp_decay"
    assert m["seed"] == 7 and m["n_paths"] == 100
    assert m["params"] == {"ts": [1.0]}


def test_manifest_validation(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"experiment": "exp_decay"}')
    with pytest.raises(FollmerLabError):
        read_manifest(str(path))


def test_experiment_replay_determinism():
    a = run_experiment("single_jump", seed=9, n_paths=3000, params=None)
    b = run_experiment("single_jump", seed=9, n_paths=3000, params=None)
    assert a.rows == b.rows
    assert a.report == b.report
