"""Bridge endpoints, mean preservation, suicide plateau identities."""

import math

import numpy as np
import pytest

from follmer_lab.errors import GridError
from follmer_lab.mc.bridges import (
    SimpleNonincreasing,
    bridge_exponential,
    simple_approx,
    single_jump_approx,
    suicide_martingale,
)
from follmer_lab.mc.grids import GridSpec, grid_index
from follmer_lab.mc.streams import mean_and_se, median_of_means


def refined_grid(anchor=1.0, m=6, t_max=2.0):
    return GridSpec(
        t_max=t_max,
        base_step=1 / 16,
        refinements=((anchor, 2.0**-m, 24),),
    )


def test_bridge_is_one_before_window_and_zero_after():
    grid = refined_grid()
    family = bridge_exponential(6, 1.0, grid)
    values = family.batch(200, 7)
    before = family.times < 1.0 - 2.0**-6
    after = family.times >= 1.0
    assert np.all(values[:, before] == 1.0)
    assert np.all(values[:, after] == 0.0)
    assert np.all(values >= 0.0)


def test_bridge_mid_window_mean_is_one():
    m = 6
    mid = 1.0 - 2.0**-m / 2
    grid = GridSpec(t_max=2.0, base_step=1 / 16, refinements=((1.0, 2.0**-m, 24),), extra_points=(mid,))
    family = bridge_exponential(m, 1.0, grid)
    vals = family.batch(40000, 11)[:, grid_index(family.times, mid)]
    mean, se = mean_and_se(vals)
    assert abs(mean - 1.0) <= 5 * se
    mom = median_of_means(vals)
    mom_se = math.sqrt(math.pi / 2.0) * se  # the median of means' scale
    assert abs(mom - 1.0) <= 5 * mom_se + 0.05  # heavy tails: loose


def test_bridge_replay_is_bit_exact():
    grid = refined_grid()
    b1 = bridge_exponential(5, 1.0, grid).batch(50, 3)
    b2 = bridge_exponential(5, 1.0, grid).batch(50, 3)
    assert np.array_equal(b1, b2)


def test_bridge_refuses_unresolved_window():
    grid = GridSpec(t_max=2.0, base_step=1 / 4)  # step 0.25 >> window 2^-6
    with pytest.raises(GridError):
        bridge_exponential(6, 1.0 + 1 / 8, grid)


def test_single_jump_before_and_after():
    grid = refined_grid()
    family = single_jump_approx(0.5, 6, 1.0, grid)
    values = family.batch(100, 5)
    before = family.times < 1.0 - 2.0**-6
    assert np.all(values[:, before] == 1.0)
    assert np.all(values[:, grid_index(family.times, 2.0)] == 0.5)  # deterministic past the anchor


def test_single_jump_a_zero_is_the_bridge():
    grid = refined_grid()
    b = bridge_exponential(6, 1.0, grid).batch(20, 9)
    n = single_jump_approx(0.0, 6, 1.0, grid).batch(20, 9)
    assert np.array_equal(b, n)


def test_simple_nonincreasing_value_convention():
    g = SimpleNonincreasing((1.0, 2.0), (1.0, 0.5, 0.25))
    v = g.values([0.0, 1.0, 1.5, 2.0, 2.5])
    assert v[0] == 1.0
    assert v[1] == 1.0  # old level holds at the jump time
    assert v[2] == 0.5
    assert v[3] == 0.5
    assert v[4] == 0.25


def test_simple_nonincreasing_validation():
    with pytest.raises(ValueError):
        SimpleNonincreasing((1.0,), (0.5, 1.0))  # increasing levels
    with pytest.raises(ValueError):
        SimpleNonincreasing((2.0, 1.0), (1.0, 0.5, 0.25))  # unsorted jumps


def test_suicide_single_jump_matches_single_jump_family():
    grid = refined_grid(anchor=1.0 + 2.0**-6)
    g = SimpleNonincreasing((1.0,), (1.0, 0.5))
    s = suicide_martingale(g, 6, grid).batch(30, 21)
    # windows agree: suicide's window is [1, 1+2^-m), the one-term sum
    n = single_jump_approx(0.5, 6, 1.0 + 2.0**-6, grid).batch(30, 21)
    assert np.allclose(s, n)
    assert np.all(s[:, grid_index(grid.points(), 0.0)] == 1.0)


def test_suicide_two_jump_plateau_identity_exact():
    m = 6
    g = SimpleNonincreasing((1.0, 2.0), (1.0, 0.5, 0.25))
    grid = GridSpec(
        t_max=3.0,
        base_step=1 / 8,
        refinements=((1.0 + 2.0**-m, 2.0**-m, 16), (2.0 + 2.0**-m, 2.0**-m, 16)),
        extra_points=(1.5,),
    )
    family = suicide_martingale(g, m, grid)
    values, times = family.batch(500, 13), family.times
    gvals = g.values(times)
    # plateaus fully past their burn-in window: [0, 1], [1+2^-m, 2], [2+2^-m, 3]
    plateau = (
        (times <= 1.0)
        | ((times >= 1.0 + 2.0**-m) & (times <= 2.0))
        | (times >= 2.0 + 2.0**-m)
    )
    assert np.all(values[:, plateau] == gvals[plateau])
    assert np.all(values[:, grid_index(times, 1.5)] == 0.5)


def test_simple_approx_constant_has_no_jumps():
    g = simple_approx([0.0, 1.0], [0.75, 0.75], k=3)
    assert g.jump_times == ()
    assert g.levels == (0.75,)


def test_simple_approx_dominates_and_jumps_on_next_dyadic():
    # drop at 0.3 (not dyadic at k=2): the sampled path drops at 0.5
    times = [0.0, 0.3, 1.0]
    vals = [1.0, 0.5, 0.5]
    g = simple_approx(times, vals, k=2)
    assert g.jump_times == (0.5,)
    assert g.levels == (1.0, 0.5)
    ts = np.linspace(0, 1, 41)
    for t, v in zip(ts, g.values(ts)):
        true = 1.0 if t < 0.3 else 0.5
        assert v >= true - 1e-15


def test_simple_approx_k_zero_single_piece():
    g = simple_approx([0.0, 1.0], [1.0, 0.5], k=0)
    # level-0 sampling over a unit horizon: the time-0 piece and one interval
    assert g.jump_times == (1.0,)
    assert g.levels == (1.0, 0.5)


def test_simple_approx_rejects_increasing():
    with pytest.raises(ValueError):
        simple_approx([0.0, 1.0], [0.5, 1.0], k=1)
