"""Grids, Brownian batches, stream determinism, aggregation helpers."""

import math

import numpy as np
import pytest

from follmer_lab.errors import GridError
from follmer_lab.mc.bridges import (
    SimpleNonincreasing,
    bridge_exponential,
    single_jump_approx,
    suicide_martingale,
)
from follmer_lab.mc.families import localized_suicide_family
from follmer_lab.mc.fatou import fatou_approx
from follmer_lab.mc.grids import GridSpec, grid_index, window_grid_indices
from follmer_lab.mc.paths import simulate_bm
from follmer_lab.mc.streams import (
    fill_paths,
    mean_and_se,
    median_of_means,
    path_generator,
)


def test_grid_points_sorted_unique_and_span():
    grid = GridSpec(t_max=2.0, base_step=0.25, extra_points=(0.3, 1.0))
    pts = grid.points()
    assert pts[0] == 0.0 and pts[-1] == 2.0
    assert np.all(np.diff(pts) > 0)
    assert 0.3 in pts


def test_grid_refinement_densifies_toward_anchor():
    grid = GridSpec(t_max=2.0, base_step=0.5, refinements=((1.0, 2.0**-6, 16),))
    pts = grid.points()
    inside = window_grid_indices(pts, 1.0 - 2.0**-6, 1.0)
    assert len(pts[inside]) >= 10
    assert 1.0 in pts


def test_grid_validation():
    with pytest.raises(GridError):
        GridSpec(t_max=0.0, base_step=0.1)
    with pytest.raises(GridError):
        GridSpec(t_max=1.0, base_step=0.1, extra_points=(2.0,)).points()


def test_bm_mean_and_variance_within_5_sigma():
    grid = GridSpec(t_max=1.0, base_step=1 / 32)
    w1 = simulate_bm(grid).batch(100000, 42)[:, grid_index(grid.points(), 1.0)]
    sigma = 1.0 / math.sqrt(100000)
    assert abs(float(w1.mean())) <= 5 * sigma
    var = float(np.var(w1, ddof=1))
    var_sigma = math.sqrt(2.0 / (100000 - 1))  # chi-square CI half-width scale
    assert abs(var - 1.0) <= 5 * var_sigma


def test_bm_replay_is_bit_exact():
    grid = GridSpec(t_max=1.0, base_step=1 / 8)
    b1 = simulate_bm(grid).batch(64, 5)
    b2 = simulate_bm(grid).batch(64, 5)
    assert np.array_equal(b1, b2)
    b3 = simulate_bm(grid).batch(64, 6)
    assert not np.array_equal(b1, b2 * 0 + b3)


def test_per_path_streams_are_stable_under_batch_size():
    grid = GridSpec(t_max=1.0, base_step=1 / 8)
    big = simulate_bm(grid).batch(50, 9)
    small = simulate_bm(grid).batch(7, 9)
    assert np.array_equal(big[:7], small)


GRID = GridSpec(t_max=2.0, base_step=1 / 16, refinements=((1.0, 2.0**-6, 24), (1.0 + 2.0**-6, 2.0**-6, 24)))
DROP = SimpleNonincreasing((1.0,), (1.0, 0.5))
FAMILIES = {
    "simulate_bm": lambda: simulate_bm(GRID),
    "bridge_exponential": lambda: bridge_exponential(6, 1.0, GRID),
    "single_jump_approx": lambda: single_jump_approx(0.5, 6, 1.0, GRID),
    "suicide_martingale": lambda: suicide_martingale(DROP, 6, GRID),
    "localized_suicide_family": lambda: localized_suicide_family(DROP, 6, 4.0, GRID),
    "fatou_approx": lambda: fatou_approx(
        GRID, np.ones(GRID.points().size), np.where(GRID.points() < 0.5, 0.0, -0.5), 2
    ),
}


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_every_family_refuses_a_batch_without_paths(name):
    family = FAMILIES[name]()
    assert family.batch(1, 0).shape == (1, GRID.points().size)
    assert family.columns(1, 0, [0, -1]).shape == (2, 1)
    for n_paths in (0, -1):
        with pytest.raises(ValueError, match="n_paths >= 1"):
            family.batch(n_paths, 0)
        with pytest.raises(ValueError, match="n_paths >= 1"):
            family.columns(n_paths, 0, [0, -1])
        with pytest.raises(ValueError, match="n_paths >= 1"):
            next(family.chunks(n_paths, 0))


def test_fill_paths_rows_match_their_own_streams():
    grid = GridSpec(t_max=1.0, base_step=1 / 16)
    values = simulate_bm(grid).batch(500, 3)
    sqrt_dt = np.sqrt(np.diff(grid.points()))
    for i in (0, 1, 250, 499):
        steps = path_generator(3, i).standard_normal(sqrt_dt.size) * sqrt_dt
        assert np.array_equal(values[i, 1:], np.cumsum(steps))


def test_fill_paths_rows_keyed_by_index():
    for uniform in (False, True):
        out = fill_paths(10, 3, lambda z: z, 3, seed=1, uniform=uniform)
        for i in range(10):
            rng = path_generator(1, i)
            assert np.array_equal(out[i], rng.random(3) if uniform else rng.standard_normal(3))
        again = fill_paths(10, 3, lambda z: z, 3, seed=1, uniform=uniform)
        assert np.array_equal(out, again)


def test_path_generator_distinct_streams():
    a = path_generator(1, 0).standard_normal(4)
    b = path_generator(1, 1).standard_normal(4)
    c = path_generator(2, 0).standard_normal(4)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_mean_se_and_median_of_means():
    rng = np.random.default_rng(0)
    x = rng.normal(3.0, 1.0, size=4096)
    mean, se = mean_and_se(x)
    assert abs(mean - 3.0) <= 5 * se
    mom = median_of_means(x)
    assert abs(mom - 3.0) <= 10 * se
