"""Gallery experiments: closed-form laws and exact separation values."""

import math
import re

import numpy as np
import pytest
from scipy.special import ndtr

from follmer_lab.errors import FollmerLabError
from follmer_lab.mc import experiments, families, gallery, paths, streams
from follmer_lab.mc.gallery import EXPERIMENTS, PARAMS, read_manifest, run_experiment, write_manifest


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


def test_every_experiment_has_a_parameter_table():
    assert set(PARAMS) == set(EXPERIMENTS)


def test_gallery_spellings_are_the_experiments_objects():
    # gallery.<name> reaches the experiments' own objects, not copies, and
    # does not forward a private name
    names = ["EXPERIMENTS", "exp_decay_family", "exp_decay_kill_times", "reciprocal_bessel_samples"]
    names += [fn.__name__ for fn in experiments.EXPERIMENTS.values()]
    for name in names:
        assert getattr(gallery, name) is getattr(experiments, name)
    assert getattr(gallery, "_row", None) is None


def test_gallery_names():
    res = run_experiment("exp_decay", seed=1, n_paths=2000, params=None)
    assert res.report["law"] == "Q[tau > t] = exp(-t)"
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
    for text in ('{"experiment": "exp_decay"}', '["exp_decay", 1, 10]'):
        path.write_text(text)
        with pytest.raises(FollmerLabError):
            read_manifest(str(path))


def test_experiment_replay_determinism():
    a = run_experiment("single_jump", seed=9, n_paths=3000, params=None)
    b = run_experiment("single_jump", seed=9, n_paths=3000, params=None)
    assert a.rows == b.rows
    assert a.report == b.report


@pytest.mark.parametrize(
    "name, params",
    [
        ("exp_decay", {"ts": [0]}),
        ("exp_decay", {"ts": [1.0, None]}),
        ("exp_decay", {"ts": []}),
        ("exp_decay", {"ts": 1.0}),
        ("exp_decay", {"ts": [True]}),
        ("exp_decay", {"ts": [float("nan")]}),
        ("reciprocal_bessel", {"ts": [float("inf")]}),
        ("reciprocal_bessel", {"ts": [10**400]}),
        ("reciprocal_bessel", {"fp_steps": -3}),
        ("fatou", {"probes": [0.5, 0.5 + 1e-13]}),
        ("single_jump", {"m": None}),
        ("extended", {"h": None}),
        ("suicide", {"jumps": None}),
        ("fatou", {"m_list": 5}),
        ("mass_redirect", {"ls": [None]}),
        ("mass_redirect", [1, 2]),
        ("bm_check", {"bogus": 3}),
        ("single_jump", {"m": 2.9}),
        ("split_limit", {"n": True}),
        ("split_limit", {"n": "3"}),
        ("single_jump", {"m": -3000}),
        ("mass_redirect", {"k": -1100}),
        ("extended", {"k": -1}),
        ("fatou", {"m_list": [1, 0]}),
        ("mass_redirect", {"k": 1100}),
        ("extended", {"k": 17}),
        ("fatou", {"m_list": [1, 3000]}),
        ("suicide", {"m": 52}),
        ("mass_redirect", {"m": 52}),
        ("fatou", {"scan_depth": 0}),
        ("fatou", {"scan_depth": 1075}),
    ],
)
def test_bad_params_are_refused_before_any_draw(monkeypatch, name, params):
    def no_draws(*args):
        raise AssertionError("drew a path before validating the parameters")

    # every normal draw starts from stream_state, every uniform from uniform_words
    monkeypatch.setattr(streams, "stream_state", no_draws)
    monkeypatch.setattr(streams, "uniform_words", no_draws)
    with pytest.raises(FollmerLabError):
        run_experiment(name, seed=1, n_paths=10, params=params)


class _Drew(Exception):
    """A path was drawn."""


def _refuse_draws(monkeypatch):
    """Make every binding of ``fill_paths`` raise :class:`_Drew`."""

    def draw(*args, **kwargs):
        raise _Drew

    for module in (streams, paths, families):
        monkeypatch.setattr(module, "fill_paths", draw)


# every range rule of the library below the manifest contract that a manifest reaches
LIBRARY_REFUSALS = {
    "single_jump-a-1": ("single_jump", {"a": 1.0}, "need 0 <= a < 1, got 1.0"),
    "mass_redirect-c-1": ("mass_redirect", {"c": 1.0}, "need 0 <= c < 1, got 1.0"),
    "mass_redirect-level-0.5": ("mass_redirect", {"level": 0.5}, "localization level 0.5 must exceed the start 1.0"),
    "mass_redirect-m-1": ("mass_redirect", {"m": 1}, "burn-in windows overlap"),
    "suicide-levels-increasing": ("suicide", {"levels": [1.0, 0.5, 0.75]}, "levels must be nonincreasing"),
    "suicide-jump-at-0": ("suicide", {"jumps": [0.0, 2.0]}, "jump times must be positive"),
    "suicide-levels-count": ("suicide", {"levels": [1.0, 0.5]}, "need one more level than jump times"),
    "suicide-level-negative": ("suicide", {"levels": [1.0, 0.5, -0.25]}, "levels must be nonnegative"),
    "split_limit-n-373": ("split_limit", {"n": 373}, "need n <= 372, got 373"),
    "extended-h-0": ("extended", {"h": 0}, "the cut at h=0.0 must fall after time 0 and burn in by t_max=1.5"),
    "extended-h-1.4": (
        "extended", {"h": 1.4}, "the cut at h=1.4 must fall after time 0 and burn in by t_max=1.5: its burn-in ends at 1.515625",
    ),
}


@pytest.mark.parametrize("case", sorted(LIBRARY_REFUSALS))
def test_library_range_rules_refuse_before_the_first_draw(monkeypatch, case):
    name, params, named = LIBRARY_REFUSALS[case]
    _refuse_draws(monkeypatch)
    with pytest.raises(ValueError, match=re.escape(named)):
        run_experiment(name, seed=1, n_paths=10, params=params)
    # the same experiment with its defaults gets as far as a draw
    with pytest.raises(_Drew):
        run_experiment(name, seed=1, n_paths=10, params=None)
