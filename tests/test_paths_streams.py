"""Grids, Brownian batches, stream determinism, aggregation helpers."""

import math

import numpy as np
import pytest

from follmer_lab.errors import GridError
from follmer_lab.mc.grids import GridSpec, window_grid_indices
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
    assert inside.size >= 10
    assert 1.0 in pts


def test_grid_validation():
    with pytest.raises(GridError):
        GridSpec(t_max=0.0, base_step=0.1)
    with pytest.raises(GridError):
        GridSpec(t_max=1.0, base_step=0.1, extra_points=(2.0,)).points()


def test_bm_mean_and_variance_within_5_sigma():
    grid = GridSpec(t_max=1.0, base_step=1 / 32)
    batch = simulate_bm(grid, 100000, seed=42)
    w1 = batch.at_time(1.0)
    sigma = 1.0 / math.sqrt(100000)
    assert abs(float(w1.mean())) <= 5 * sigma
    var = float(np.var(w1, ddof=1))
    var_sigma = math.sqrt(2.0 / (100000 - 1))  # chi-square CI half-width scale
    assert abs(var - 1.0) <= 5 * var_sigma


def test_bm_replay_is_bit_exact():
    grid = GridSpec(t_max=1.0, base_step=1 / 8)
    b1 = simulate_bm(grid, 64, seed=5)
    b2 = simulate_bm(grid, 64, seed=5)
    assert np.array_equal(b1.values, b2.values)
    b3 = simulate_bm(grid, 64, seed=6)
    assert not np.array_equal(b1.values, b2.values * 0 + b3.values)


def test_per_path_streams_are_stable_under_batch_size():
    grid = GridSpec(t_max=1.0, base_step=1 / 8)
    big = simulate_bm(grid, 50, seed=9)
    small = simulate_bm(grid, 7, seed=9)
    assert np.array_equal(big.values[:7], small.values)


def test_fill_paths_rows_match_their_own_streams():
    grid = GridSpec(t_max=1.0, base_step=1 / 16)
    batch = simulate_bm(grid, 500, seed=3)
    sqrt_dt = np.sqrt(np.diff(batch.times))
    for i in (0, 1, 250, 499):
        steps = path_generator(3, i).standard_normal(sqrt_dt.size) * sqrt_dt
        assert np.array_equal(batch.values[i, 1:], np.cumsum(steps))


def test_fill_paths_rows_keyed_by_index():
    def fill_one(i, rng):
        return np.array([float(i), rng.random()])

    out = fill_paths(10, fill_one, 2, seed=1)
    assert np.array_equal(out[:, 0], np.arange(10.0))
    again = fill_paths(10, fill_one, 2, seed=1)
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
