"""Block-drawn Monte-Carlo families against a per-path oracle.

The oracle is the per-path code the block families replaced: one closure per
path that draws its variates piece by piece from that path's own stream.
Its localized family carries one fix the block code also has: at a jump
time the clock is 0 and the path holds the level entering the window.
Because draws from one stream concatenate, every block family must
reproduce it bit for bit, at path counts on both sides of the block size and
on more than one seed.  The first k rows of an n-path batch must also equal
a k-path batch (the prefix property).
"""

import bisect
import math

import numpy as np
import pytest
from scipy.special import ndtr

from follmer_lab.mc import streams
from follmer_lab.mc.bridges import (
    SIGMA_MAX,
    SimpleNonincreasing,
    bridge_exponential,
    burnin_clock,
    simple_approx,
    single_jump_approx,
    suicide_martingale,
)
from follmer_lab.mc.families import LADDER_STEP, split_limit_demo
from follmer_lab.mc.fatou import fatou_approx
from follmer_lab.mc.experiments import (
    exp_decay_family,
    exp_decay_kill_times,
    reciprocal_bessel_samples,
)
from follmer_lab.mc.gallery import PARAMS
from follmer_lab.mc.grids import GridSpec
from follmer_lab.mc.paths import simulate_bm
from follmer_lab.mc.streams import CHUNK_PATHS, fill_paths, mean_and_se, path_generator

C = CHUNK_PATHS
COUNTS = (1, 2, C - 1, C, C + 1, 2 * C + 3)
SEEDS = (7, 2**40 + 3)
DECAY = {key: PARAMS["mass_redirect"][key] for key in ("k", "m", "level")}  # exp_decay_family's arguments


# -- the per-path oracle -----------------------------------------------------------


def per_path(n_paths, fill_one, n_cols, seed):
    out = np.empty((n_paths, n_cols))
    for i in range(n_paths):
        out[i] = fill_one(i, path_generator(seed, i))
    return out


def oracle_increments(rng, sigmas):
    if sigmas.size == 0:
        return np.empty(0)
    d = np.diff(np.concatenate(([0.0], sigmas)))
    b = np.cumsum(rng.standard_normal(sigmas.size) * np.sqrt(d))
    return np.exp(b - sigmas / 2.0)


def oracle_bridge_row(rng, times, anchor, length):
    out = np.ones(times.size)
    inside = (times >= anchor - length) & (times < anchor)
    sig = burnin_clock(times[inside], anchor, length)
    live = sig <= SIGMA_MAX
    vals = np.zeros(sig.size)
    vals[live] = oracle_increments(rng, sig[live])
    out[inside] = vals
    out[times >= anchor] = 0.0
    return out


def oracle_bm(grid, n_paths, seed):
    times = grid.points()
    sqrt_dt = np.sqrt(np.diff(times))

    def fill_one(i, rng):
        out = np.empty(times.size)
        out[0] = 0.0
        np.cumsum(rng.standard_normal(sqrt_dt.size) * sqrt_dt, out=out[1:])
        return out

    return per_path(n_paths, fill_one, times.size, seed)


def oracle_bridge(m, anchor, grid, n_paths, seed):
    times = grid.points()
    return per_path(
        n_paths, lambda i, rng: oracle_bridge_row(rng, times, anchor, 2.0**-m), times.size, seed
    )


def oracle_suicide(g, m, grid, n_paths, seed):
    times = grid.points()
    length = 2.0**-m

    def fill_one(i, rng):
        out = np.full(times.size, g.levels[0])
        for rho, drop in g.drops():
            out -= drop * (1.0 - oracle_bridge_row(rng, times, rho + length, length))
        return out

    return per_path(n_paths, fill_one, times.size, seed)


def oracle_window_walk(rng, grid_sigmas, e_threshold):
    ladder = np.arange(LADDER_STEP, SIGMA_MAX + LADDER_STEP / 2, LADDER_STEP)
    merged = np.unique(np.concatenate((ladder, grid_sigmas)))
    merged = merged[(merged > 0) & (merged <= SIGMA_MAX)]
    e = oracle_increments(rng, merged)
    crossing = None
    hit = np.nonzero(e >= e_threshold)[0]
    if hit.size:
        crossing = (float(merged[hit[0]]), float(e[hit[0]]))
    at_grid = np.interp(grid_sigmas, merged, e) if grid_sigmas.size else np.empty(0)
    return at_grid, float(e[-1]), crossing


def oracle_localized(g, m, level, grid, n_paths, seed):
    times = grid.points()
    length = 2.0**-m

    def fill_one(i, rng):
        out = np.empty(times.size)
        base = g.levels[0]
        frozen = None
        fill_from = 0.0
        for rho, drop in g.drops():
            anchor = rho + length
            out[(times >= fill_from) & (times < rho)] = base
            inside_idx = np.nonzero((times >= rho) & (times < anchor))[0]
            sig = np.minimum(burnin_clock(times[inside_idx], anchor, length), SIGMA_MAX)
            floor = base - drop
            at_grid, residual, crossing = oracle_window_walk(rng, sig, (level - floor) / drop)
            out[inside_idx] = floor + drop * at_grid
            out[inside_idx[sig <= 0]] = base  # at the jump time itself the level holds
            if crossing is not None:
                s_cross, e_cross = crossing
                frozen = (anchor - length * math.exp(-s_cross), floor + drop * e_cross)
                break
            base = floor + drop * residual
            fill_from = anchor
        if frozen is None:
            out[times >= fill_from] = base
        else:
            out[times >= frozen[0]] = frozen[1]
        return out

    return per_path(n_paths, fill_one, times.size, seed)


def oracle_step_value(times, values, t):
    """The value at the last sample time <= t, the first value before the first sample."""
    return float(values[max(bisect.bisect_right(times, t) - 1, 0)])


def oracle_fatou(grid, m_arr, d_arr, m, n_paths, seed):
    times = grid.points()
    # the phases (k 2^-m, k 2^-m + 2^-3m) that start by t_max and by time m
    k_max = min(int(times[-1] * 2**m), m * 2**m)
    phases = [(k * 2.0**-m, k * 2.0**-m + 2.0 ** (-3 * m)) for k in range(1, k_max + 1)]
    sample_times = times.tolist()

    def fill_one(i, rng):
        out = np.empty(times.size)
        cache = {}
        for j, t in enumerate(times):
            completed = [p for p in phases if p[1] <= t]
            level = oracle_step_value(sample_times, d_arr, completed[-1][0]) if completed else float(d_arr[0])
            active = next((p for p in phases if p[0] < t < p[1]), None)
            if active is None:
                out[j] = level
                continue
            start, end = active
            nxt = oracle_step_value(sample_times, d_arr, start)
            if nxt == level:
                out[j] = level
                continue
            if (start, end) not in cache:
                cache[(start, end)] = oracle_bridge_row(rng, times, end, end - start)
            out[j] = nxt + (level - nxt) * cache[(start, end)][j]
        return m_arr + out

    return per_path(n_paths, fill_one, times.size, seed)


def oracle_split_limit(n, n_paths, seed):
    resid_std = math.sqrt(math.exp(-2.0 * n) / 2.0)
    gn_std = math.sqrt((1.0 - math.exp(-2.0 * n)) / 2.0)

    def fill_one(i, rng):
        g_n = rng.standard_normal() * gn_std
        g_inf = g_n + rng.standard_normal() * resid_std
        _, residual, crossing = oracle_window_walk(rng, np.empty(0), 2.0**n)
        if crossing is None:
            return np.array([g_n, g_inf, residual, 0.0])
        return np.array([g_n, g_inf, crossing[1], 1.0])

    return per_path(n_paths, fill_one, 4, seed)


def oracle_survival(rng, t, steps):
    dt = t / steps
    x = 1.0
    survival = 1.0
    for _ in range(steps):
        y = x + rng.standard_normal() * math.sqrt(dt)
        if y <= 0.0:
            return 0.0
        survival *= 1.0 - math.exp(-2.0 * x * y / dt)
        x = y
    return survival


def oracle_reciprocal(probe, steps, n_paths, seed):
    def fill_one(i, rng):
        out = np.empty(2 * len(probe))
        pos = np.array([1.0, 0.0, 0.0])
        prev = 0.0
        for j, t in enumerate(probe):
            pos = pos + rng.standard_normal(3) * math.sqrt(t - prev)
            out[j] = 1.0 / float(np.linalg.norm(pos))
            prev = t
        for j, t in enumerate(probe):
            out[len(probe) + j] = oracle_survival(rng, t, steps)
        return out

    return per_path(n_paths, fill_one, 2 * len(probe), seed)


def oracle_kill_times(n_paths, seed):
    return per_path(
        n_paths, lambda i, rng: np.array([-math.log1p(-rng.random())]), 1, seed
    )[:, 0]


# -- the families under test, as (block, oracle) functions of (n_paths, seed) --------


def _split_limit_terminals(results):
    return np.column_stack([results.terminal[sign] for sign in ("+", "-")])


def _oracle_split_limit_terminals(n, n_paths, seed):
    g_n, g_inf, stopped, _ = oracle_split_limit(n, n_paths, seed).T
    p_plus = ndtr(g_n / math.sqrt(math.exp(-2.0 * n) / 2.0))
    cols = []
    for p_own, own in ((p_plus, g_inf > 0), (1.0 - p_plus, g_inf < 0)):
        terminal = np.zeros(n_paths)
        np.divide(stopped, p_own, out=terminal, where=own & (p_own > 0))
        cols.append(terminal)
    return np.column_stack(cols)


def _exp_decay_g_and_grid():
    """The simple process and grid that ``exp_decay_family`` builds with mass_redirect's defaults."""
    draft = GridSpec(t_max=2.5, base_step=1 / 16).points()
    g = simple_approx(draft, np.exp(-draft), k=3)
    grid = GridSpec(
        t_max=2.5,
        base_step=1 / 16,
        refinements=tuple((rj + 2.0**-6, 2.0**-6, 12) for rj in g.jump_times),
        extra_points=(math.log(2.0), math.log(2.0) + 1.0),
    )
    return g, grid


def _fatou_case():
    # extra points strictly inside level-2 and level-3 phases, so those levels
    # bridge too; D drops at 1/4, 1/2 and 5/8
    extra = (0.25 + 2.0**-8, 0.5 + 2.0**-7, 0.5 + 2.0**-10, 0.625 + 2.0**-10, 0.75 + 2.0**-12)
    grid = GridSpec(t_max=1.0, base_step=1 / 32, extra_points=extra)
    times = grid.points()
    d = np.select([times < 0.25, times < 0.5, times < 0.625], [0.0, -0.25, -0.5], -0.6)
    return grid, 1.0 + times, d


BM_GRID = GridSpec(t_max=1.0, base_step=1 / 16, extra_points=(0.3,))
BRIDGE_GRID = GridSpec(t_max=2.0, base_step=1 / 16, refinements=((1.0, 2.0**-6, 24),))
SUICIDE_G = SimpleNonincreasing((1.0, 2.0), (1.0, 0.5, 0.25))
SUICIDE_GRID = GridSpec(
    t_max=3.0, base_step=1 / 8, refinements=tuple((r + 2.0**-6, 2.0**-6, 16) for r in (1.0, 2.0))
)


def _cases():
    cases = {
        "simulate_bm": (
            lambda n, s: simulate_bm(BM_GRID).batch(n, s),
            lambda n, s: oracle_bm(BM_GRID, n, s),
        ),
        "bridge_exponential": (
            lambda n, s: bridge_exponential(6, 1.0, BRIDGE_GRID).batch(n, s),
            lambda n, s: oracle_bridge(6, 1.0, BRIDGE_GRID, n, s),
        ),
        "single_jump": (
            lambda n, s: single_jump_approx(0.3, 6, 1.0, BRIDGE_GRID).batch(n, s),
            lambda n, s: 0.3 + (1.0 - 0.3) * oracle_bridge(6, 1.0, BRIDGE_GRID, n, s),
        ),
        "suicide_martingale": (
            lambda n, s: suicide_martingale(SUICIDE_G, 6, SUICIDE_GRID).batch(n, s),
            lambda n, s: oracle_suicide(SUICIDE_G, 6, SUICIDE_GRID, n, s),
        ),
        "exp_decay_kill_times": (exp_decay_kill_times, oracle_kill_times),
        "reciprocal_bessel": (
            lambda n, s: reciprocal_bessel_samples([0.5, 1.0, 2.0], 64, n, s),
            lambda n, s: oracle_reciprocal([0.5, 1.0, 2.0], 64, n, s),
        ),
        # most skeletons hit 0 long before the last probe: ragged offsets
        "reciprocal_bessel_early_hits": (
            lambda n, s: reciprocal_bessel_samples([0.25, 9.0, 25.0], 6, n, s),
            lambda n, s: oracle_reciprocal([0.25, 9.0, 25.0], 6, n, s),
        ),
    }
    for n_level in (1, 4):
        cases[f"split_limit_n{n_level}"] = (
            lambda n, s, k=n_level: _split_limit_terminals(split_limit_demo(k, n, s)),
            lambda n, s, k=n_level: _oracle_split_limit_terminals(k, n, s),
        )
    fatou_grid, fatou_m, fatou_d = _fatou_case()
    for m in (1, 2, 3, 6):
        cases[f"fatou_m{m}"] = (
            lambda n, s, m=m: fatou_approx(fatou_grid, fatou_m, fatou_d, m).batch(n, s),
            lambda n, s, m=m: oracle_fatou(fatou_grid, fatou_m, fatou_d, m, n, s),
        )
    # level 4 as in mass_redirect; level 1.02 sits just above the start, so
    # most paths cross in the first windows
    g, grid = _exp_decay_g_and_grid()
    for level in (4.0, 1.02):
        cases[f"localized_level{level}"] = (
            lambda n, s, level=level: exp_decay_family(DECAY["k"], DECAY["m"], level)[0].batch(n, s),
            lambda n, s, level=level: oracle_localized(g, 6, level, grid, n, s),
        )
    return cases


CASES = _cases()


@pytest.mark.parametrize("name", sorted(CASES))
def test_block_family_matches_per_path_oracle(name):
    block, oracle = CASES[name]
    for seed in SEEDS:
        expected = oracle(COUNTS[-1], seed)
        full = block(COUNTS[-1], seed)
        assert np.array_equal(full, expected), (name, seed)
        for n in COUNTS[:-1]:
            rows = block(n, seed)
            assert np.array_equal(rows, expected[:n]), (name, seed, n)
            assert np.array_equal(rows, full[:n]), (name, seed, n)


def test_exp_decay_case_rebuilds_the_family_grid():
    g, grid = _exp_decay_g_and_grid()
    fam, _ = exp_decay_family(**DECAY)
    assert np.array_equal(grid.points(), fam.times) and len(g.jump_times) == 20


def test_split_limit_scalars_match_oracle():
    for seed in SEEDS:
        _, _, stopped, crossed = oracle_split_limit(4, C + 1, seed).T
        r = split_limit_demo(4, C + 1, seed)
        assert (r.own_mass, r.own_se) == mean_and_se(stopped)
        assert r.crossing_frequency == float(np.mean(crossed))
        assert r.raw_own_mass == {sign: mean_and_se(t)[0] for sign, t in r.terminal.items()}


def test_fill_paths_bounds_block_draws():
    # rows holding more than CHUNK_DRAWS // CHUNK_PATHS variates go in smaller blocks
    k = streams.CHUNK_DRAWS // C + 5
    sizes = []

    def fill_block(z):
        sizes.append(z.shape[0])
        return z[:, :2]

    out = fill_paths(C + 1, k, fill_block, 2, seed=3)
    assert max(sizes) * k <= streams.CHUNK_DRAWS and sum(sizes) == C + 1
    for i in (0, C):
        assert np.array_equal(out[i], path_generator(3, i).standard_normal(k)[:2])
