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
from typing import Dict, Sequence, Tuple

import numpy as np

from .bridges import (
    SIGMA_MAX,
    SimpleNonincreasing,
    bridge_increment_values,
    burnin_clock,
    simple_approx,
    suicide_martingale,
)
from .grids import GridSpec, window_grid_indices
from .normal import ndtr
from .paths import PathFamily
from .streams import fill_paths, mean_and_se

LADDER_STEP = 0.25
LADDER = np.arange(LADDER_STEP, SIGMA_MAX + LADDER_STEP / 2, LADDER_STEP)


def _merged_ladder(grid_sigmas: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """One window's clock ladder and where each grid clock sits on it.

    The ladder is the uniform grid LADDER up to SIGMA_MAX merged with the
    positive grid clocks, so crossings are caught with small overshoot and
    the capped residual stays bounded on non-crossing paths.  A path draws
    one normal per ladder clock.
    """
    merged = np.unique(np.concatenate((LADDER, grid_sigmas)))
    merged = merged[(merged > 0) & (merged <= SIGMA_MAX)]
    return merged, np.searchsorted(merged, grid_sigmas)


def _first_crossing(e: np.ndarray, threshold) -> Tuple[np.ndarray, np.ndarray]:
    """Per row of ladder values: does it reach ``threshold``, and the first ladder index that does."""
    hit = e >= threshold
    return hit.any(axis=1), hit.argmax(axis=1)


@dataclass(frozen=True)
class _LocalizedWindow:
    """The path-independent part of one burn-in window of the localized family."""

    drop: float
    plateau: np.ndarray  # grid indices holding the level entering the window
    inside: np.ndarray  # grid indices inside the window
    ladder: np.ndarray  # merged clock ladder
    at: np.ndarray  # position of each inside grid clock on the ladder
    t_cross: np.ndarray  # calendar time of each ladder clock


def localized_suicide_family(
    g: SimpleNonincreasing,
    m: int,
    level: float,
    grid: GridSpec,
) -> PathFamily:
    """Suicide family stopped at its first crossing of ``level``.

    Burn-in windows [rho_k, rho_k + 2^-m) must not overlap.  Values past a
    window's clock cap keep the capped residual (not a hard zero), so every
    path is a martingale along the merged simulation clock and the stopped
    values have mean exactly the starting level at every grid time.  Each
    path draws the normals of every window's ladder; a path that crosses
    leaves the rest of its draws unused.
    """
    if level <= g.levels[0]:
        raise ValueError(
            f"localization level {level} must exceed the start {g.levels[0]}"
        )
    times = grid.points()
    length = 2.0**-m
    drops = g.drops()
    for (r1, _), (r2, _) in zip(drops, drops[1:]):
        if r2 < r1 + length:
            raise ValueError("burn-in windows overlap; raise m or thin the jumps")
    windows = []
    fill_from = 0.0  # the level entering the next window applies from here on
    for rho, drop in drops:
        anchor = rho + length
        window = window_grid_indices(times, rho, anchor)
        sig = np.minimum(burnin_clock(times[window], anchor, length), SIGMA_MAX)
        # at clock 0 (the jump time itself) the bridge is still 1: the level holds
        started = sig > 0
        inside, sig = window[started], sig[started]
        ladder, at = _merged_ladder(sig)
        t_cross = np.array([anchor - length * math.exp(-s) for s in ladder.tolist()])
        before = np.nonzero((times >= fill_from) & (times < rho))[0]
        plateau = np.concatenate((before, window[~started]))
        windows.append(_LocalizedWindow(drop, plateau, inside, ladder, at, t_cross))
        fill_from = anchor
    tail = np.nonzero(times >= fill_from)[0]
    n_draws = sum(w.ladder.size for w in windows)

    def fill_block(z: np.ndarray) -> np.ndarray:
        # Every row walks every window; a row's values after its first
        # crossing are overwritten by the frozen value at the end.
        n = z.shape[0]
        out = np.empty((n, times.size))
        base = np.full(n, g.levels[0])
        crossed = np.zeros(n, dtype=bool)
        t_frozen = np.empty(n)
        v_frozen = np.empty(n)
        off = 0
        for w in windows:
            out[:, w.plateau] = base[:, None]
            floor = base - w.drop
            e = bridge_increment_values(z[:, off : off + w.ladder.size], w.ladder)
            off += w.ladder.size
            out[:, w.inside] = floor[:, None] + w.drop * e[:, w.at]
            hit, first = _first_crossing(e, ((level - floor) / w.drop)[:, None])
            new = np.nonzero(hit & ~crossed)[0]
            t_frozen[new] = w.t_cross[first[new]]
            v_frozen[new] = floor[new] + w.drop * e[new, first[new]]
            crossed[new] = True
            base = floor + w.drop * e[:, -1]
            del e  # free this window's ladder block before the next one is built
        out[:, tail] = base[:, None]
        for r in np.nonzero(crossed)[0].tolist():
            out[r, np.searchsorted(times, t_frozen[r]) :] = v_frozen[r]
        return out

    return PathFamily(times, n_draws, fill_block)


# -- terminal extension --------------------------------------------------------


@dataclass
class ExtendedFamilyReport:
    """The sanity statistics of one member of the terminal-extended family."""

    normalizer: float
    mean_initial: float
    se_initial: float
    mean_terminal: float
    se_terminal: float

    @property
    def core_constant(self) -> bool:
        """The 0/0 = 1 convention branch: the normalizer vanishes."""
        return self.normalizer == 0.0


def extended_approx(
    grid: GridSpec,
    z_values: Sequence[float],
    terminal: float,
    h: float,
    k: int,
    m: int,
    n_paths: int,
    seed: int,
) -> ExtendedFamilyReport:
    """Family member for a deterministic supermartingale extended by a terminal value.

    Z is one deterministic path, so the conditional expectation of the
    terminal value given F_t is the constant ``terminal`` itself, the oracle.
    The core (Z - terminal)/normalizer is cut to zero at time h, dyadically
    sampled at resolution k and realized by a suicide family at burn-in m;
    the member is terminal + normalizer * core-family.  When the normalizer
    vanishes the core is identically one (0/0 = 1 convention) and the member
    is the constant ``terminal``: no path is drawn.  The member is read at
    the first and last grid times only, streamed (:meth:`PathFamily.columns`).

    Otherwise the member starts at Z_0 and ends at ``terminal`` only if the
    family carries the cut out: the core must be cut after time 0, and the
    cut's drop to 0 must finish its burn-in, 2^-m after its dyadic landing
    time, by the last grid time.  Any other ``h`` is refused before a path
    is drawn, naming ``h``, the end of that burn-in and the last grid time.
    """
    times = grid.points()
    z_arr = np.asarray(z_values, dtype=float)
    if z_arr.size != times.size:
        raise ValueError("Z path must be sampled on the grid")
    normalizer = float(z_arr[0] - terminal)
    if normalizer == 0.0:
        ends = np.full((2, n_paths), terminal + 0.0)
    else:
        core = np.where(times < h, (z_arr - terminal) / normalizer, 0.0)
        if np.any(core < -1e-12) or np.any(np.diff(core) > 1e-12):
            raise ValueError("core path must be nonnegative and nonincreasing")
        g = simple_approx(times, np.maximum(core, 0.0), k)
        t_max = float(times[-1])
        cut_end = g.jump_times[-1] + 2.0**-m if h > 0 and g.levels[-1] == 0 else math.inf
        if cut_end > t_max:
            why = (
                "the core is 0 from time 0 on" if h <= 0
                else "the core is not cut by then" if g.levels[-1]
                else f"its burn-in ends at {cut_end}"
            )
            raise ValueError(f"the cut at h={h} must fall after time 0 and burn in by t_max={t_max}: {why}")
        ends = suicide_martingale(g, m, grid).columns(n_paths, seed, [0, -1])
        ends *= normalizer
        ends += terminal
    mean0, se0 = mean_and_se(ends[0])
    meanT, seT = mean_and_se(ends[1])
    return ExtendedFamilyReport(normalizer, mean0, se0, meanT, seT)


# -- mass redirection (first-passage reweighting) -------------------------------


@dataclass
class MassRedirectResult:
    indicator: np.ndarray
    estimate: float  # E[L^(l)_inf 1_{B_l}]
    se: float


def redirect_bound(c: float) -> float:
    """The lower bound (1-c)/2 on every level's redirected mass; refuses c outside [0, 1)."""
    if not 0.0 <= c < 1.0:
        raise ValueError(f"need 0 <= c < 1, got {c}")
    return (1.0 - c) / 2.0


def mass_redirect(
    l_at_rho: np.ndarray,
    l_terminal: np.ndarray,
    w_at_rho: np.ndarray,
    w_after: np.ndarray,
    c: float,
    ls: Sequence[int],
) -> Tuple[float, Dict[int, MassRedirectResult]]:
    """Redirect a family member's mass onto the window event B_l, for each level l in ``ls``.

    The redirect stop fires at the first passage time when the member still
    sits above (1+c)/2 there; fired paths are reweighted by the indicator of
    B_l = {driver one unit of time after the passage lies in (l, l+1)} over
    its conditional probability given the passage data (Gaussian closed
    form).  The estimate of the redirected mass on B_l is bounded below by
    :func:`redirect_bound`, (1-c)/2, up to sampling error, for every member
    of the family.

    Every level reweights the same paths, so the normal CDF is evaluated once
    per distinct k among the levels and their successors.  Returns the share
    of paths whose redirect stop fires, which every level shares, and a map
    from each level to its redirection.
    """
    redirect_bound(c)  # refuses c outside [0, 1)
    if not ls:
        raise ValueError("need at least one level")
    l_at_rho = np.asarray(l_at_rho, dtype=float)
    l_terminal = np.asarray(l_terminal, dtype=float)
    w_at_rho = np.asarray(w_at_rho, dtype=float)
    w_after = np.asarray(w_after, dtype=float)
    threshold = (1.0 + c) / 2.0
    fired = l_at_rho > threshold
    fired_fraction = float(np.mean(fired))
    levels = set(ls)
    ks = sorted(levels | {l + 1 for l in levels})
    cdf = {k: ndtr(k - w_at_rho) for k in ks}
    results = {}
    for l in levels:
        indicator = (w_after > l) & (w_after < l + 1)
        cond_prob = cdf[l + 1] - cdf[l]
        safe = np.where(cond_prob > 0, cond_prob, 1.0)
        reweighted = np.where(fired, l_at_rho * indicator / safe, l_terminal)
        est, se = mean_and_se(reweighted * indicator)
        results[l] = MassRedirectResult(indicator=indicator, estimate=est, se=se)
    return fired_fraction, results


# -- split-limit demo (sign-of-terminal reweighting) ----------------------------


@dataclass
class SplitLimitResult:
    """The values both signs share, then ``raw_own_mass`` and ``terminal`` keyed by sign ("+", "-")."""

    own_mass: float  # E[L 1_{A_sign}] ~ 1 for either sign, time-n conditioning integrated out
    own_se: float
    crossing_frequency: float  # P[level 2^n reached] <= 2^-n
    raw_own_mass: Dict[str, float]  # plain average of L * 1_{A_sign}: heavy boundary layer
    terminal: Dict[str, np.ndarray]  # L 1_{A_sign}: 0 off the own sign event


def split_limit_demo(n: int, n_paths: int, seed: int) -> SplitLimitResult:
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

    Both signs reweight the same paths, so each path is drawn once; the
    conditioned mass and the crossing frequency are the same for both, and
    only the raw mass and the per-path values depend on the sign.  ``n`` is
    at most 372: past that exp(-2n) underflows to 0.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if n > 372:
        raise ValueError(f"need n <= 372, got {n}")
    level = 2.0**n
    resid_std = math.sqrt(math.exp(-2.0 * n) / 2.0)
    gn_std = math.sqrt((1.0 - math.exp(-2.0 * n)) / 2.0)

    def fill_block(z: np.ndarray) -> np.ndarray:
        g_n = z[:, 0] * gn_std
        g_inf = g_n + z[:, 1] * resid_std
        e = bridge_increment_values(z[:, 2:], LADDER)
        crossed, first = _first_crossing(e, level)
        stopped = np.where(crossed, e[np.arange(z.shape[0]), first], e[:, -1])
        return np.column_stack((g_n, g_inf, stopped, crossed))

    g_n, g_inf, stopped, crossed = fill_paths(n_paths, 2 + LADDER.size, fill_block, 4, seed).T
    p_plus = ndtr(g_n / resid_std)
    terminal = {}
    for sign, p_own, own_event in (("+", p_plus, g_inf > 0), ("-", 1.0 - p_plus, g_inf < 0)):
        # the weight 1/p_own applies only on the own event, and only where p_own > 0
        terminal[sign] = np.zeros(n_paths)
        np.divide(stopped, p_own, out=terminal[sign], where=own_event & (p_own > 0))
    own_mass, own_se = mean_and_se(stopped)
    raw_own_mass = {sign: mean_and_se(t)[0] for sign, t in terminal.items()}
    return SplitLimitResult(own_mass, own_se, float(np.mean(crossed)), raw_own_mass, terminal)
