"""Exponential burn-in bridges and suicide martingales.

A burn-in bridge is the stochastic exponential that sits at 1 before its
window [anchor - 2^-m, anchor), burns all mass inside it, and is 0 from the
anchor on.  It is simulated without discretization bias through its natural
clock: inside the window the log runs on the scale s = -log((anchor - t)/len),
on which the driver is a standard Brownian motion, so values at the grid
times are exact in distribution.  The clock is capped at SIGMA_MAX = 30; the
public bridge sets values to 0 past the cap and at/after the anchor (the
plateau-tail mass left beyond the cap is below exp(-SIGMA_MAX/8), reported by
callers that care).

A suicide martingale rides one independent bridge per jump of a nonincreasing
simple process, so each drop H_{n-1} -> H_n is realized with probability one
over a window of length 2^-m after the jump time.  On any plateau whose
window has fully burned, its value equals the simple process exactly, path by
path.  Driving the bridges independently (rather than from one shared
Brownian motion) changes none of the asserted properties and keeps
overlapping windows simple.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from ..errors import GridError
from .grids import GridSpec, step_value, window_grid_indices
from .paths import PathBatch
from .streams import fill_paths

SIGMA_MAX = 30.0


def burnin_clock(t: np.ndarray, anchor: float, length: float) -> np.ndarray:
    """The bridge's natural clock inside the window: -log((anchor - t)/length)."""
    return -np.log((anchor - t) / length)


def bridge_increment_values(
    rng: np.random.Generator, sigmas: np.ndarray
) -> np.ndarray:
    """exp(B_s - s/2) at increasing clock times s, B a standard Brownian motion."""
    if sigmas.size == 0:
        return np.empty(0)
    d = np.diff(np.concatenate(([0.0], sigmas)))
    b = np.cumsum(rng.standard_normal(sigmas.size) * np.sqrt(d))
    return np.exp(b - sigmas / 2.0)


def _bridge_row(
    rng: np.random.Generator, times: np.ndarray, anchor: float, length: float
) -> np.ndarray:
    """One path of the bridge at all grid times: 1 before, burn inside, 0 after."""
    out = np.ones(times.size)
    start = anchor - length
    inside = (times >= start) & (times < anchor)
    sig = burnin_clock(times[inside], anchor, length)
    live = sig <= SIGMA_MAX
    vals = np.zeros(sig.size)
    vals[live] = bridge_increment_values(rng, sig[live])
    out[inside] = vals
    out[times >= anchor] = 0.0
    return out


def bridge_exponential(
    m: int, anchor: float, grid: GridSpec, n_paths: int, seed: int
) -> PathBatch:
    """Burn-in bridge with window [anchor - 2^-m, anchor).

    Refuses when no grid point falls inside the window: the caller must
    refine the grid (GridSpec refinements densify toward the anchor).
    """
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    times = grid.points()
    length = 2.0**-m
    start = anchor - length
    if start < 0 or anchor > grid.t_max:
        raise GridError(f"window [{start}, {anchor}) outside the grid span")
    if window_grid_indices(times, start, anchor).size == 0:
        raise GridError(
            f"window [{start}, {anchor}) shorter than one grid step: refine "
            f"the grid near the anchor"
        )

    def fill_one(i: int, rng: np.random.Generator) -> np.ndarray:
        return _bridge_row(rng, times, anchor, length)

    values = fill_paths(n_paths, fill_one, times.size, seed)
    return PathBatch(times, values, seed, kind="bridge")


def single_jump_approx(
    a: float, m: int, anchor: float, grid: GridSpec, n_paths: int, seed: int
) -> PathBatch:
    """The one-drop family a + (1-a) * bridge: 1 before the window, a from the anchor on."""
    if not 0.0 <= a < 1.0:
        raise ValueError(f"need 0 <= a < 1, got {a}")
    batch = bridge_exponential(m, anchor, grid, n_paths, seed)
    batch.values = a + (1.0 - a) * batch.values
    batch.kind = "single_jump"
    return batch


@dataclass(frozen=True)
class SimpleNonincreasing:
    """Piecewise-constant nonincreasing path: level H_k on (rho_k, rho_{k+1}].

    ``levels[0]`` is the value at 0 (held through the first jump time).
    """

    jump_times: Tuple[float, ...]
    levels: Tuple[float, ...]

    def __post_init__(self):
        if len(self.levels) != len(self.jump_times) + 1:
            raise ValueError("need one more level than jump times")
        if any(b <= a for a, b in zip(self.jump_times, self.jump_times[1:])):
            raise ValueError("jump times must be strictly increasing")
        if self.jump_times and self.jump_times[0] <= 0:
            raise ValueError("jump times must be positive")
        if any(b > a for a, b in zip(self.levels, self.levels[1:])):
            raise ValueError("levels must be nonincreasing")
        if self.levels and self.levels[-1] < 0:
            raise ValueError("levels must be nonnegative")

    def value(self, t: float) -> float:
        """Level at time t (left-continuous drops: the old level holds at the jump)."""
        k = 0
        for rho in self.jump_times:
            if t > rho:
                k += 1
            else:
                break
        return self.levels[k]

    def values(self, times: np.ndarray) -> np.ndarray:
        return np.array([self.value(float(t)) for t in times])

    def drops(self) -> List[Tuple[float, float]]:
        """(jump time, drop size) for every jump that lowers the level."""
        return [
            (rho, self.levels[k] - self.levels[k + 1])
            for k, rho in enumerate(self.jump_times)
            if self.levels[k] != self.levels[k + 1]
        ]


def suicide_martingale(
    g: SimpleNonincreasing,
    m: int,
    grid: GridSpec,
    n_paths: int,
    seed: int,
) -> PathBatch:
    """Composite bridge family realizing every drop of ``g`` over 2^-m windows.

    N_t = H_0 - sum_n (H_{n-1} - H_n) (1 - E^(n)_t) with one independent
    bridge per jump, window [rho_n, rho_n + 2^-m).  At t = 0 the value is H_0
    exactly; on a fully burned plateau it equals g exactly on every path.
    Overlapping windows are allowed; no plateau identity holds inside them.
    """
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    times = grid.points()
    length = 2.0**-m
    drops = g.drops()

    def fill_one(i: int, rng: np.random.Generator) -> np.ndarray:
        out = np.full(times.size, g.levels[0])
        for rho, drop in drops:
            e = _bridge_row(rng, times, rho + length, length)
            out -= drop * (1.0 - e)
        return out

    values = fill_paths(n_paths, fill_one, times.size, seed)
    return PathBatch(times, values, seed, kind="suicide")


def simple_approx(times: Sequence[float], values: Sequence[float], k: int) -> SimpleNonincreasing:
    """Dyadic left-sampling of a nonincreasing path at resolution 2^-k.

    The sampled process holds the value at each dyadic left endpoint over the
    following dyadic interval, so it dominates the input pointwise and drops
    land on the next dyadic after the input's own drops.
    """
    times = np.asarray(times, dtype=float)
    vals = np.asarray(values, dtype=float)
    if times.size != vals.size or times.size == 0:
        raise ValueError("need matching nonempty times and values")
    if np.any(np.diff(vals) > 1e-15):
        raise ValueError("input path must be nonincreasing")

    step = 2.0**-k
    t_end = float(times[-1])
    n_steps = int(math.floor(t_end / step + 1e-12))
    jumps: List[float] = []
    levels: List[float] = [step_value(times, vals, 0.0)]
    for n in range(1, n_steps + 1):
        t = n * step
        level = step_value(times, vals, t)
        if level < levels[-1]:
            jumps.append(t)
            levels.append(level)
    return SimpleNonincreasing(tuple(jumps), tuple(levels))
