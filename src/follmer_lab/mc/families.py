"""Approximating-martingale families: localization, extension, mass redirection.

The level-stopped suicide family freezes a suicide martingale at its first
crossing of a level, detected on a fine uniform ladder of the burn-in clock;
stopping restores uniform integrability, so stopped values keep mean one
exactly (optional stopping over exact Gaussian increments).  The extension
machinery splits a terminal-extended supermartingale into its terminal
conditional expectation plus a normalized core approximated by the suicide
pipeline.  Mass redirection reweights a family member on a window event after
its first passage below a level; the split-limit demo reweights on the sign
of an independent Gaussian terminal variable.  Both produce families whose
limits disagree while every member matches the same supermartingale at
deterministic times.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

import numpy as np
from scipy.special import ndtr

from .bridges import (
    SIGMA_MAX,
    SimpleNonincreasing,
    bridge_increment_values,
    burnin_clock,
    simple_approx,
    suicide_martingale,
)
from .grids import GridSpec
from .paths import PathBatch
from .streams import fill_paths, mean_and_se

LADDER_STEP = 0.25


def _window_walk(
    rng: np.random.Generator, grid_sigmas: np.ndarray, e_threshold: float
) -> Tuple[np.ndarray, float, Optional[Tuple[float, float]]]:
    """Walk one burn-in window on the merged clock ladder.

    Returns the bridge values at ``grid_sigmas``, the residual value at the
    clock cap, and the first ladder crossing of ``e_threshold`` as a
    (clock, value) pair, if any.  The ladder is the uniform grid up to
    SIGMA_MAX merged with the requested clocks, so crossings are caught with
    small overshoot and the capped residual stays bounded on non-crossing
    paths.
    """
    ladder = np.arange(LADDER_STEP, SIGMA_MAX + LADDER_STEP / 2, LADDER_STEP)
    merged = np.unique(np.concatenate((ladder, grid_sigmas)))
    merged = merged[(merged > 0) & (merged <= SIGMA_MAX)]
    e = bridge_increment_values(rng, merged)
    crossing = None
    if e_threshold < math.inf:
        hit = np.nonzero(e >= e_threshold)[0]
        if hit.size:
            crossing = (float(merged[hit[0]]), float(e[hit[0]]))
    at_grid = np.interp(grid_sigmas, merged, e) if grid_sigmas.size else np.empty(0)
    # grid clocks are members of the merged ladder: interp just selects them
    residual = float(e[-1]) if merged.size else 1.0
    return at_grid, residual, crossing


def localized_suicide_family(
    g: SimpleNonincreasing,
    m: int,
    level: float,
    grid: GridSpec,
    n_paths: int,
    seed: int,
) -> PathBatch:
    """Suicide family stopped at its first crossing of ``level``.

    Burn-in windows [rho_k, rho_k + 2^-m) must not overlap.  Values past a
    window's clock cap keep the capped residual (not a hard zero), so every
    path is a martingale along the merged simulation clock and the stopped
    values have mean exactly the starting level at every grid time.
    """
    if level <= g.levels[0]:
        raise ValueError(
            f"localization level {level} must exceed the start {g.levels[0]}"
        )
    times = grid.points()
    length = 2.0**-m
    windows = g.drops()
    for (r1, _), (r2, _) in zip(windows, windows[1:]):
        if r2 < r1 + length:
            raise ValueError("burn-in windows overlap; lower m or thin the jumps")

    def fill_one(i: int, rng: np.random.Generator) -> np.ndarray:
        out = np.empty(times.size)
        base = g.levels[0]
        frozen: Optional[Tuple[float, float]] = None
        fill_from = 0.0  # plateau value `base` applies from here on
        for rho, drop in windows:
            anchor = rho + length
            plateau = (times >= fill_from) & (times < rho)
            out[plateau] = base
            inside_idx = np.nonzero((times >= rho) & (times < anchor))[0]
            sig = np.minimum(burnin_clock(times[inside_idx], anchor, length), SIGMA_MAX)
            floor = base - drop
            e_threshold = (level - floor) / drop
            at_grid, residual, crossing = _window_walk(rng, sig, e_threshold)
            out[inside_idx] = floor + drop * at_grid
            if crossing is not None:
                s_cross, e_cross = crossing
                t_cross = anchor - length * math.exp(-s_cross)
                frozen = (t_cross, floor + drop * e_cross)
                break
            base = floor + drop * residual
            fill_from = anchor
        if frozen is None:
            out[times >= fill_from] = base
        else:
            t_cross, value = frozen
            out[times >= t_cross] = value
        return out

    values = fill_paths(n_paths, fill_one, times.size, seed)
    return PathBatch(times, values, seed, kind="localized_suicide")


# -- terminal extension --------------------------------------------------------


@dataclass
class ExtendedFamilyReport:
    """One member of the terminal-extended family plus its sanity statistics."""

    batch: PathBatch
    normalizer: float
    mean_initial: float
    se_initial: float
    mean_terminal: float
    se_terminal: float
    expected_terminal: float
    core_constant: bool  # the 0/0 = 1 convention branch


def extended_approx(
    grid: GridSpec,
    z_values: Sequence[float],
    oracle: Optional[Callable[[np.ndarray], np.ndarray]],
    terminal_mean: float,
    h: float,
    k: int,
    m: int,
    n_paths: int,
    seed: int,
) -> ExtendedFamilyReport:
    """Family member for a supermartingale extended by a terminal value.

    ``oracle`` maps grid times to the conditional expectation of the terminal
    extension (closed form, supplied by the caller); ``terminal_mean`` is its
    expectation.  The core (Z - oracle)/normalizer is cut to zero at time h,
    dyadically sampled at resolution k and realized by a suicide family at
    burn-in m; the member is oracle + normalizer * core-family.  When the
    normalizer vanishes the core is identically one (0/0 = 1 convention) and
    the member is the oracle itself.
    """
    if oracle is None:
        raise ValueError("terminal conditional-expectation oracle is required")
    times = grid.points()
    z_arr = np.asarray(z_values, dtype=float)
    if z_arr.size != times.size:
        raise ValueError("Z path must be sampled on the grid")
    oracle_arr = np.asarray(oracle(times), dtype=float)
    normalizer = float(z_arr[0] - terminal_mean)
    core_constant = normalizer == 0.0
    if core_constant:
        values = np.tile(oracle_arr + 0.0, (n_paths, 1))
    else:
        core = np.where(times < h, (z_arr - oracle_arr) / normalizer, 0.0)
        if np.any(core < -1e-12) or np.any(np.diff(core) > 1e-12):
            raise ValueError("core path must be nonnegative and nonincreasing")
        g = simple_approx(times, np.maximum(core, 0.0), k)
        fam = suicide_martingale(g, m, grid, n_paths, seed)
        values = oracle_arr[None, :] + normalizer * fam.values
    batch = PathBatch(times, values, seed, kind="extended")
    mean0, se0 = mean_and_se(values[:, 0])
    meanT, seT = mean_and_se(values[:, -1])
    return ExtendedFamilyReport(
        batch, normalizer, mean0, se0, meanT, seT, terminal_mean, core_constant
    )


# -- mass redirection (first-passage reweighting) -------------------------------


@dataclass
class MassRedirectResult:
    reweighted_terminal: np.ndarray
    indicator: np.ndarray
    estimate: float  # E[L^(l)_inf 1_{B_l}]
    se: float
    bound: float  # the guaranteed lower bound (1 - c)/2
    fired_fraction: float  # share of paths with the redirect stop at rho


def mass_redirect(
    l_at_rho: np.ndarray,
    l_terminal: np.ndarray,
    w_at_rho: np.ndarray,
    w_after: np.ndarray,
    c: float,
    l: int,
) -> MassRedirectResult:
    """Redirect a family member's mass onto the window event B_l.

    The redirect stop fires at the first passage time when the member still
    sits above (1+c)/2 there; fired paths are reweighted by the indicator of
    B_l = {driver one unit of time after the passage lies in (l, l+1)} over
    its conditional probability given the passage data (Gaussian closed
    form).  The estimate of the redirected mass on B_l is bounded below by
    (1-c)/2 up to sampling error, for every member of the family.
    """
    if not 0.0 <= c < 1.0:
        raise ValueError(f"need 0 <= c < 1, got {c}")
    l_at_rho = np.asarray(l_at_rho, dtype=float)
    l_terminal = np.asarray(l_terminal, dtype=float)
    w_at_rho = np.asarray(w_at_rho, dtype=float)
    w_after = np.asarray(w_after, dtype=float)
    threshold = (1.0 + c) / 2.0
    fired = l_at_rho > threshold
    indicator = (w_after > l) & (w_after < l + 1)
    cond_prob = ndtr(l + 1 - w_at_rho) - ndtr(l - w_at_rho)
    safe = np.where(cond_prob > 0, cond_prob, 1.0)
    reweighted = np.where(fired, l_at_rho * indicator / safe, l_terminal)
    samples = reweighted * indicator
    est, se = mean_and_se(samples)
    return MassRedirectResult(
        reweighted_terminal=reweighted,
        indicator=indicator,
        estimate=est,
        se=se,
        bound=(1.0 - c) / 2.0,
        fired_fraction=float(np.mean(fired)),
    )


# -- split-limit demo (sign-of-terminal reweighting) ----------------------------


@dataclass
class SplitLimitResult:
    terminal: np.ndarray
    own_mass: float  # E[L 1_{A_sign}] ~ 1, time-n conditioning integrated out
    own_se: float
    cross_mass: float  # E[L 1_{A_-sign}] = 0 samplewise
    cross_se: float
    raw_own_mass: float  # plain average of L * 1_{A_sign}: heavy boundary layer
    raw_own_se: float
    crossing_frequency: float  # P[level 2^n reached] <= 2^-n
    crossing_bound: float


def split_limit_demo(
    sign: str,
    n: int,
    n_paths: int,
    seed: int,
) -> SplitLimitResult:
    """Family reweighted on the sign of an independent Gaussian terminal value.

    The driver integral has terminal variance 1/2 and residual variance
    exp(-2n)/2 beyond time n, so the sign probabilities given time-n data are
    Gaussian closed forms.  The carrier is a bridge burning on [n-1, n),
    stopped at its first ladder crossing of 2^n (kept at the bounded clock-cap
    residual otherwise); stopped means are exactly one, and by the maximal
    inequality the crossing frequency is at most 2^-n.

    Mass estimates integrate the time-n conditioning out via the closed form:
    the conditional expectation of a sample given the time-n data is just the
    stopped carrier value, so the estimator has finite variance.  The raw
    average of L * indicator is also reported; for large n it hides almost
    half its expectation on sign flips of probability too small to sample
    (the indicator-over-probability weight has infinite variance), which is
    why the conditioned estimator is the quoted one.
    """
    if sign not in {"+", "-"}:
        raise ValueError("sign must be '+' or '-'")
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    level = 2.0**n
    resid_std = math.sqrt(math.exp(-2.0 * n) / 2.0)
    gn_std = math.sqrt((1.0 - math.exp(-2.0 * n)) / 2.0)

    def fill_one(i: int, rng: np.random.Generator) -> np.ndarray:
        g_n = rng.standard_normal() * gn_std
        g_inf = g_n + rng.standard_normal() * resid_std
        _, residual, crossing = _window_walk(rng, np.empty(0), level)
        if crossing is None:
            return np.array([g_n, g_inf, residual, 0.0])
        return np.array([g_n, g_inf, crossing[1], 1.0])

    g_n, g_inf, stopped, crossed = fill_paths(n_paths, fill_one, 4, seed).T
    p_plus = ndtr(g_n / resid_std)
    if sign == "+":
        p_own, own_event, cross_event = p_plus, g_inf > 0, g_inf < 0
    else:
        p_own, own_event, cross_event = 1.0 - p_plus, g_inf < 0, g_inf > 0
    # the weight 1/p_own applies only on the own event, and only where p_own > 0
    terminal = np.zeros(n_paths)
    np.divide(stopped, p_own, out=terminal, where=own_event & (p_own > 0))
    raw_own = np.where(own_event, terminal, 0.0)
    cross = np.where(cross_event, terminal, 0.0)

    own_mass, own_se = mean_and_se(stopped)
    raw_mass, raw_se = mean_and_se(raw_own)
    cross_mass, cross_se = mean_and_se(cross)
    return SplitLimitResult(
        terminal=terminal,
        own_mass=own_mass,
        own_se=own_se,
        cross_mass=cross_mass,
        cross_se=cross_se,
        raw_own_mass=raw_mass,
        raw_own_se=raw_se,
        crossing_frequency=float(np.mean(crossed)),
        crossing_bound=2.0**-n,
    )
