"""Localized families, terminal extension, mass redirection, split-limit demo."""

import math

import numpy as np
import pytest

from follmer_lab.mc import paths
from follmer_lab.mc.bridges import SimpleNonincreasing, simple_approx
from follmer_lab.mc.families import (
    extended_approx,
    localized_suicide_family,
    mass_redirect,
    split_limit_demo,
)
from follmer_lab.mc.experiments import exp_decay_family
from follmer_lab.mc.gallery import PARAMS
from follmer_lab.mc.grids import GridSpec, grid_index
from follmer_lab.mc.paths import simulate_bm
from follmer_lab.mc.streams import mean_and_se

# the family mass_redirect runs, with its default parameters
DECAY = {key: PARAMS["mass_redirect"][key] for key in ("k", "m", "level")}


def test_localized_family_is_mean_exact_at_grid_times():
    fam, rho = exp_decay_family(**DECAY)
    values = fam.batch(20000, 101)
    for t in (rho, float(fam.times[-1])):
        mean, se = mean_and_se(values[:, grid_index(fam.times, t)])
        assert abs(mean - 1.0) <= 4 * se


def test_localized_family_freezes_at_level():
    fam, _ = exp_decay_family(**DECAY)
    values = fam.batch(2000, 7)
    running_max = np.maximum.accumulate(values, axis=1)
    crossed = running_max[:, -1] >= 4.0
    # frozen rows are constant after the first crossing
    for i in np.nonzero(crossed)[0][:50]:
        j = np.argmax(values[i] >= 4.0)
        assert np.all(values[i, j:] == values[i, j])


def test_localized_family_holds_its_level_at_jump_times():
    # at a jump time the window's clock is 0 and the bridge still reads 1
    draft = GridSpec(t_max=2.5, base_step=1 / 16).points()
    g = simple_approx(draft, np.exp(-draft), k=3)
    fam, _ = exp_decay_family(**DECAY)
    values = fam.batch(400, 7)
    assert g.jump_times[-1] == fam.times[-1] == 2.5
    for rho in g.jump_times:
        at_rho, before = (values[:, grid_index(fam.times, t)] for t in (rho, rho - 1 / 16))
        assert np.array_equal(at_rho, before)


def test_localized_family_rejects_low_level_and_overlap():
    g = SimpleNonincreasing((1.0, 1.004), (1.0, 0.6, 0.3))
    grid = GridSpec(t_max=2.0, base_step=1 / 8)
    with pytest.raises(ValueError):
        localized_suicide_family(g, m=6, level=0.5, grid=grid)
    with pytest.raises(ValueError):
        # windows of length 2^-6 overlap for jumps 1.0 and 1.004
        localized_suicide_family(g, m=6, level=4.0, grid=grid)


def test_mass_redirect_bound_and_disjointness():
    fam, rho = exp_decay_family(**DECAY)
    values = fam.batch(20000, 31)
    l_rho = values[:, grid_index(fam.times, rho)]
    l_term = values[:, grid_index(fam.times, float(fam.times[-1]))]
    wgrid = GridSpec(t_max=2.5, base_step=1 / 4, extra_points=(rho, rho + 1.0))
    w = simulate_bm(wgrid).batch(20000, 32)
    w_rho, w_after = (w[:, grid_index(wgrid.points(), t)] for t in (rho, rho + 1.0))
    c = 0.5
    _, results = mass_redirect(l_rho, l_term, w_rho, w_after, c, (1, 2))
    assert sorted(results) == [1, 2]
    for r in results.values():
        assert r.estimate >= (1.0 - c) / 2.0 - 3 * r.se
    # the window events are disjoint: no path can score on both
    both = results[1].indicator & results[2].indicator
    assert not both.any()
    total = results[1].estimate + results[2].estimate
    total_se = math.hypot(results[1].se, results[2].se)
    assert total <= 1.0 + 5 * total_se


def test_mass_redirect_levels_match_one_at_a_time():
    # the levels share one normal-CDF call; each result has the bits of its level alone
    fam, rho = exp_decay_family(**DECAY)
    values = fam.batch(600, 7)
    l_rho, l_term = (values[:, grid_index(fam.times, t)] for t in (rho, 2.5))
    wgrid = GridSpec(t_max=2.5, base_step=1 / 4, extra_points=(rho, rho + 1.0))
    w = simulate_bm(wgrid).batch(600, 8)
    w_rho, w_after = (w[:, grid_index(wgrid.points(), t)] for t in (rho, rho + 1.0))
    args = (l_rho, l_term, w_rho, w_after, 0.5)
    fired, together = mass_redirect(*args, (3, 1, 2, 1))
    assert sorted(together) == [1, 2, 3]
    for l, r in together.items():
        fired_alone, by_level = mass_redirect(*args, [l])
        alone = by_level[l]
        assert (r.estimate, r.se, fired) == (alone.estimate, alone.se, fired_alone)
        assert np.array_equal(r.indicator, alone.indicator)


def test_mass_redirect_degenerate_always_fires():
    # trivial member identically 1 with c = 0: the stop fires wherever the
    # passage is finite, which is every path here
    n = 4000
    ones = np.ones(n)
    rng = np.random.default_rng(5)
    w_rho = rng.normal(0.0, 1.0, n)
    w_after = w_rho + rng.normal(0.0, 1.0, n)
    fired, results = mass_redirect(ones, ones * 0.0, w_rho, w_after, 0.0, [1])
    r = results[1]
    assert fired == 1.0
    assert abs(r.estimate - 1.0) <= 4 * r.se  # reweighting preserves the mass


def test_mass_redirect_validates_c():
    with pytest.raises(ValueError):
        mass_redirect(np.ones(2), np.ones(2), np.zeros(2), np.zeros(2), 1.0, [1])
    with pytest.raises(ValueError):
        mass_redirect(np.ones(2), np.ones(2), np.zeros(2), np.zeros(2), 0.5, [])


def test_split_limit_masses():
    r = split_limit_demo(n=4, n_paths=30000, seed=55)
    # one conditioned estimate serves both signs
    assert abs(r.own_mass - 1.0) <= 3 * r.own_se
    # raw average hides the boundary-layer mass; it must sit well below 1
    assert r.raw_own_mass["+"] < 0.8


def test_split_limit_crossing_frequency_bound():
    n = 4
    r = split_limit_demo(n=n, n_paths=30000, seed=99)
    freq_se = math.sqrt(r.crossing_frequency * (1 - r.crossing_frequency) / 30000)
    assert r.crossing_frequency <= 2.0**-n + 5 * freq_se


def test_split_limit_validates_inputs():
    with pytest.raises(ValueError):
        split_limit_demo(0, 10, 1)


def _decay_grid(h, k, m, t_max):
    base = GridSpec(t_max=t_max, base_step=1 / 32)
    draft = base.points()
    core = np.where(draft < h, np.exp(-draft), 0.0)
    g = simple_approx(draft, core, k=k)
    window = 2.0**-m
    return GridSpec(
        t_max=t_max,
        base_step=1 / 32,
        refinements=tuple((rj + window, window, 10) for rj in g.jump_times),
    )


def test_extended_zero_terminal_gives_pure_core():
    grid = _decay_grid(1.0, 3, 6, 1.5)
    times = grid.points()
    rep = extended_approx(
        grid,
        np.exp(-times),
        terminal=0.0,
        h=1.0,
        k=3,
        m=6,
        n_paths=500,
        seed=3,
    )
    assert rep.normalizer == 1.0
    assert rep.mean_initial == 1.0  # exact: every path starts at the level
    assert rep.mean_terminal == 0.0  # exact: all mass burned past the cut


def test_extended_constant_terminal_conserves_expectation():
    grid = _decay_grid(1.0, 3, 6, 1.5)
    times = grid.points()
    z = (1.0 + np.exp(-times)) / 2.0
    rep = extended_approx(
        grid,
        z,
        terminal=0.5,
        h=1.0,
        k=3,
        m=6,
        n_paths=500,
        seed=3,
    )
    assert rep.normalizer == 0.5
    assert rep.mean_initial == 1.0
    assert rep.mean_terminal == 0.5  # the terminal value, the oracle


def test_extended_zero_over_zero_convention(monkeypatch):
    filled = []
    monkeypatch.setattr(paths, "fill_paths", lambda *args, **kwargs: filled.append(args))
    grid = GridSpec(t_max=1.0, base_step=1 / 8)
    times = grid.points()
    rep = extended_approx(
        grid,
        np.ones_like(times),
        terminal=1.0,
        h=0.5,
        k=2,
        m=4,
        n_paths=20,
        seed=1,
    )
    assert rep.core_constant
    # the member is the constant terminal: exact means, SE 0, no path drawn
    assert (rep.mean_initial, rep.se_initial) == (rep.mean_terminal, rep.se_terminal) == (1.0, 0.0)
    assert not filled
