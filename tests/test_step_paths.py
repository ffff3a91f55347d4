"""Reading step paths: ``grids.step_values`` and the schedules built on it.

``step_values`` is checked against a scalar reader built on ``bisect``.
``simple_approx`` and ``FatouSchedule.build`` are checked against the
per-time loops they replaced, kept here as oracles: every level, jump time,
held value and grid index must be equal, and the levels and jump times of
``simple_approx`` must stay Python floats.  The random paths are
nonincreasing up to upward wobbles of at most 1e-15, which both forms
tolerate, and some of their sample times fall on dyadic times.
"""

import bisect
import math

import numpy as np
import pytest

from follmer_lab.mc.bridges import SIGMA_MAX, SimpleNonincreasing, burnin_clock, simple_approx
from follmer_lab.mc.fatou import FatouSchedule, _phase_schedule
from follmer_lab.mc.grids import step_values


def ref_step_value(times, values, t, side="right"):
    """The value at the last sample time <= t (``side="left"``: < t); the first value before them all."""
    find = bisect.bisect_right if side == "right" else bisect.bisect_left
    return float(values[max(find(list(times), t) - 1, 0)])


def oracle_simple_approx(times, values, k):
    """The dyadic left-sampling loop: one read per dyadic time, a drop below the last level."""
    step = 2.0**-k
    n_steps = int(math.floor(float(times[-1]) / step + 1e-12))
    jumps, levels = [], [ref_step_value(times, values, 0.0)]
    for n in range(1, n_steps + 1):
        t = n * step
        level = ref_step_value(times, values, t)
        if level < levels[-1]:
            jumps.append(t)
            levels.append(level)
    return tuple(jumps), tuple(levels)


def oracle_fatou_schedule(times, d_values, m):
    """(level, [(cols, prev, nxt, inside, sigmas)]) of the level-m schedule by one loop per phase.

    ``inside`` lists the grid indices of the bridge window [end - (end -
    start), end) and ``sigmas`` its clocks at most SIGMA_MAX, by one test
    per grid time.
    """
    step, width = 2.0**-m, 2.0 ** (-3 * m)
    k_max = min(int(math.floor(float(times[-1]) / step + 1e-12)), m * 2**m)
    phases = [(k * step, k * step + width) for k in range(1, k_max + 1)]
    held = [float(d_values[0])] + [ref_step_value(times, d_values, start) for start, _ in phases]
    level = np.empty(times.size)
    bridged = {}
    for j, t in enumerate(times.tolist()):
        completed = sum(1 for _, end in phases if end <= t)
        level[j] = held[completed]
        active = [k for k, (start, end) in enumerate(phases) if start < t < end]
        if active:
            bridged.setdefault(active[0], []).append(j)
    out = []
    for k in sorted(bridged):
        (start, end), prev, nxt = phases[k], held[k], held[k + 1]
        if nxt == prev:
            continue
        length = end - start
        inside = [j for j, t in enumerate(times.tolist()) if end - length <= t < end]
        clocks = burnin_clock(times[inside], end, length).tolist()
        out.append((bridged[k], prev, nxt, inside, [s for s in clocks if s <= SIGMA_MAX]))
    return level, out


def random_step_path(rng, t_max, n):
    """Sorted sample times on [0, t_max], some dyadic, and a nonincreasing path with 1e-15 wobbles."""
    dyadic = rng.integers(0, 8 * t_max + 1, n // 2 + 1) / 8.0
    times = np.unique(np.concatenate(([0.0, t_max], rng.uniform(0.0, t_max, n), dyadic)))
    drops = rng.exponential(0.3, times.size) * (rng.random(times.size) < 0.3)
    drops[0] = 0.0
    values = np.maximum(float(rng.uniform(0.5, 2.0)) - np.cumsum(drops), 0.0)
    for j in np.nonzero(drops == 0.0)[0][1:]:
        wobble = values[j] + float(rng.integers(0, 5)) * 2.0**-52
        if rng.random() < 0.5 and wobble - values[j - 1] <= 1e-15:
            values[j] = wobble
    return times, values


# -- the reader ---------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(40))
@pytest.mark.parametrize("side", ["right", "left"])
def test_step_values_matches_a_scalar_reader(seed, side):
    rng = np.random.default_rng(seed)
    times = np.unique(rng.uniform(-1.0, 3.0, int(rng.integers(1, 30))))
    values = rng.normal(size=times.size)
    # ties at every sample time, before the first sample and after the last
    ts = np.concatenate((times, rng.uniform(-2.0, 4.0, 50), [times[0] - 1.0, times[-1] + 1.0]))
    got = step_values(times, values, ts, side=side)
    assert got.dtype == np.float64 and got.shape == ts.shape
    assert got.tolist() == [ref_step_value(times, values, t, side) for t in ts.tolist()]
    for t in ts[:5].tolist() + ts[-2:].tolist():
        scalar = step_values(times, values, t, side=side)
        assert np.ndim(scalar) == 0 and scalar == ref_step_value(times, values, t, side)


def test_step_values_at_a_sample_time_reads_its_value_or_the_left_limit():
    times = np.array([0.0, 0.25, 0.5, 1.0])
    values = np.array([3.0, 2.0, 1.0, 0.0])
    assert step_values(times, values, [0.25, 0.5, 1.0]).tolist() == [2.0, 1.0, 0.0]
    assert step_values(times, values, [0.25, 0.5, 1.0], side="left").tolist() == [3.0, 2.0, 1.0]
    # before the first sample both sides read the first value
    assert step_values(times, values, [-1.0, 0.0], side="left").tolist() == [3.0, 3.0]
    assert step_values(times, values, 2.0) == 0.0


def test_simple_nonincreasing_values_hold_the_old_level_at_a_jump():
    g = SimpleNonincreasing((1.0, 2.0), (1.0, 0.5, 0.25))
    ts = [-1.0, 0.0, 1.0, np.nextafter(1.0, 2.0), 2.0, 2.5]
    assert g.values(ts).tolist() == [1.0, 1.0, 1.0, 0.5, 0.5, 0.25]
    assert SimpleNonincreasing((), (0.75,)).values(ts).tolist() == [0.75] * len(ts)


# -- the schedules against the loops they replaced ----------------------------------------


@pytest.mark.parametrize("seed", range(30))
def test_simple_approx_matches_the_per_time_loop(seed):
    rng = np.random.default_rng(100 + seed)
    times, values = random_step_path(rng, float(rng.choice([1.0, 2.5, rng.uniform(0.2, 3.0)])), 30)
    for k in (0, 1, 3, int(rng.integers(4, 13))):
        g = simple_approx(times, values, k)
        jumps, levels = oracle_simple_approx(times, values, k)
        assert g.jump_times == jumps and g.levels == levels
        assert all(type(x) is float for x in g.jump_times + g.levels)


def test_simple_approx_keeps_the_first_level_through_a_wobble():
    # the wobble lifts a sample 2 ulps above the level before it; no drop, no rise
    up = 0.5 + 2.0**-52
    g = simple_approx([0.0, 0.25, 0.5, 0.75, 1.0], [0.5, up, 0.5, 0.25, 0.25], k=2)
    assert g.jump_times == (0.75,) and g.levels == (0.5, 0.25)
    assert oracle_simple_approx([0.0, 0.25, 0.5, 0.75, 1.0], [0.5, up, 0.5, 0.25, 0.25], 2) == (
        g.jump_times, g.levels,
    )


def test_simple_approx_refuses_nan():
    with pytest.raises(ValueError, match="nonincreasing"):
        simple_approx([0.0, 0.5, 1.0], [1.0, float("nan"), 0.5], k=1)


@pytest.mark.parametrize("seed", range(20))
def test_fatou_schedule_matches_the_per_phase_loop(seed):
    rng = np.random.default_rng(200 + seed)
    t_max = float(rng.choice([1.0, 2.0, rng.uniform(0.6, 2.0)]))
    sample_times, sample_values = random_step_path(rng, t_max, 20)
    # grid times inside the phase at 1/2 of every level, and a drop at 1/2,
    # so that phase is bridged
    run = 0.5 + 2.0 ** -np.arange(3.0, 30.0, 0.5)
    times = np.unique(np.concatenate((sample_times, rng.uniform(0.0, t_max, 40), run)))
    values = step_values(sample_times, sample_values, times) - 0.25 * (times >= 0.5)
    n_bridged = 0
    for m in (1, 2, int(rng.integers(3, 9))):
        starts, ends = _phase_schedule(m, float(times[-1]))
        step = 2.0**-m
        assert starts.tolist() == [k * step for k in range(1, starts.size + 1)]
        assert ends.tolist() == [s + 2.0 ** (-3 * m) for s in starts.tolist()]
        sched = FatouSchedule.build(times, values, m)
        level, bridged = oracle_fatou_schedule(times, values, m)
        assert sched.level.dtype == np.float64 and sched.level.tolist() == level.tolist()
        assert len(sched.bridged) == len(bridged)
        for p, (cols, prev, nxt, inside, sigmas) in zip(sched.bridged, bridged):
            window = list(range(times.size))[p.window.inside]
            assert window == inside
            # the phase's grid times are the last ones of its window
            assert type(p.n) is int and p.n >= 1 and window[-p.n :] == cols
            assert (p.prev, p.nxt) == (prev, nxt) and type(p.prev) is type(p.nxt) is float
            assert p.window.sigmas.tolist() == sigmas
        n_bridged += len(bridged)
    assert n_bridged >= 3
