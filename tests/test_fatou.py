"""Exceptional-set scan and exact probe convergence of the dyadic schedules."""

from fractions import Fraction

import numpy as np
import pytest

from follmer_lab.mc.fatou import fatou_approx, fatou_probe_error, in_S
from follmer_lab.mc.grids import GridSpec, grid_index, step_values


def test_in_s_excludes_dyadic_left_endpoints():
    # 0.5 is a left endpoint at every level: the open intervals miss it and
    # the next lower interval ends 2^-m - 2^-3m short of it
    assert in_S(0.5, 20) is False


def test_in_s_catches_mid_phase_point():
    assert in_S(Fraction(1, 8) + Fraction(1, 1024), 20) is True
    # generic form: 2^-m + 2^-3m/2 sits inside the (k=1, m) interval
    for m in (2, 4, 6):
        t = Fraction(1, 2**m) + Fraction(1, 2 ** (3 * m + 1))
        assert in_S(t, 20) is True


def test_in_s_zero_and_negative():
    assert in_S(0, 20) is False
    assert in_S(Fraction(-1, 2), 20) is False


def test_in_s_is_settled_by_level_1074():
    # every double is a multiple of 2^-1074, so from level 1074 on it is a
    # grid point of the level, outside every phase interval
    probes = [0.125 + 2.0**-10, 0.5 + 2.0**-52, 1.0 + 2.0**-52, 0.1, 0.6, 5e-324, 2.0**-1022]
    probes += [2.0**-m + 2.0 ** -(3 * m + 1) for m in range(2, 17, 2)]
    probes += [0.5, 0.375, 1.0 - 2.0**-53, 1.0 / 3.0]
    at_bound = [in_S(p, 1074) for p in probes]
    assert at_bound == [in_S(p, 1200) for p in probes]
    assert sum(at_bound) == 15


def _gallery_paths(grid):
    times = grid.points()
    d = np.where(times < 0.25, 0.0, np.where(times < 0.5, -0.25, -0.5))
    m = np.ones_like(times)
    return times, m, d


def test_constant_drift_is_exact_for_every_m():
    grid = GridSpec(t_max=1.0, base_step=1 / 32)
    times = grid.points()
    d = np.zeros_like(times)
    m_arr = np.ones_like(times)
    for m in (1, 2, 3):
        values = fatou_approx(grid, m_arr, d, m).batch(20, 4)
        assert np.all(values == 1.0)


def test_probe_errors_vanish_identically_once_resolved():
    grid = GridSpec(t_max=1.0, base_step=1 / 64, extra_points=(0.5, 0.375))
    times, m_arr, d = _gallery_paths(grid)
    for probe in (0.5, 0.375):
        assert in_S(probe, 20) is False
        errs = []
        for m in range(1, 9):
            column = fatou_approx(grid, m_arr, d, m).batch(30, 8)[:, grid_index(times, probe)]
            errs.append(float(fatou_probe_error(times, column, m_arr, d, probe).max()))
        m0 = next(m for m, e in zip(range(1, 9), errs) if e == 0.0)
        assert all(e == 0.0 for m, e in zip(range(1, 9), errs) if m >= m0)


def test_schedule_holds_last_dyadic_value_between_phases():
    grid = GridSpec(t_max=1.0, base_step=1 / 64, extra_points=(0.30,))
    times, m_arr, d = _gallery_paths(grid)
    values = fatou_approx(grid, m_arr, d, 2).batch(10, 3)
    # at t = 0.30 with m = 2: the phase at 0.25 completed (0.25 + 2^-6), so the
    # schedule holds D(0.25) = -0.25 exactly
    assert np.all(values[:, grid_index(times, 0.30)] == 1.0 - 0.25)


def test_left_value_surrogate():
    times = np.array([0.0, 0.25, 0.5, 1.0])
    vals = np.array([0.0, -0.25, -0.5, -0.5])
    assert step_values(times, vals, 0.5, side="left") == -0.25
    assert step_values(times, vals, 0.6, side="left") == -0.5
    assert step_values(times, vals, 0.25, side="left") == 0.0


def test_rejects_increasing_drift():
    grid = GridSpec(t_max=1.0, base_step=1 / 4)
    times = grid.points()
    with pytest.raises(ValueError):
        fatou_approx(grid, np.ones_like(times), np.linspace(0, 1, times.size), 2)
