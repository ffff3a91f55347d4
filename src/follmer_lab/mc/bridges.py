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
from .grids import GridSpec, step_values, window_grid_indices
from .paths import PathFamily

SIGMA_MAX = 30.0


def burnin_clock(t: np.ndarray, anchor: float, length: float) -> np.ndarray:
    """The bridge's natural clock inside the window: -log((anchor - t)/length)."""
    return -np.log((anchor - t) / length)


def bridge_increment_values(z: np.ndarray, sigmas: np.ndarray) -> np.ndarray:
    """exp(B_s - s/2) at increasing clock times s, B a standard Brownian motion.

    ``z`` holds one standard normal per clock time in its last axis (one row
    per path); B is their cumulative sum scaled by the clock increments.
    Every step after the copy of ``z`` works in place, so beside ``z`` the
    call holds one array of its shape, even when ``z`` is a column slice of
    a wider block, which a product into a new array would buffer in full.
    """
    d = np.diff(np.concatenate(([0.0], sigmas)))
    b = np.array(z)
    b *= np.sqrt(d)
    np.cumsum(b, axis=-1, out=b)
    b -= sigmas / 2.0
    return np.exp(b, out=b)


@dataclass(frozen=True)
class BridgeWindow:
    """Where one burn-in window [anchor - length, anchor) sits on a time grid.

    ``inside`` are the grid indices in the window, ``live`` marks those whose
    clock is at most SIGMA_MAX and ``sigmas`` are the live clocks: a path
    draws one normal per live clock, the rest of the window reads 0.
    """

    anchor: float
    inside: np.ndarray
    live: np.ndarray
    sigmas: np.ndarray

    @classmethod
    def on(cls, times: np.ndarray, anchor: float, length: float) -> "BridgeWindow":
        inside = window_grid_indices(times, anchor - length, anchor)
        sig = burnin_clock(times[inside], anchor, length)
        live = sig <= SIGMA_MAX
        return cls(anchor, inside, live, sig[live])

    @property
    def n_draws(self) -> int:
        return int(self.sigmas.size)

    def values(self, z: np.ndarray) -> np.ndarray:
        """Bridge values at the ``inside`` grid times for a block of normals."""
        vals = np.zeros((z.shape[0], self.inside.size))
        vals[:, self.live] = bridge_increment_values(z, self.sigmas)
        return vals

    def rows(self, z: np.ndarray, times: np.ndarray) -> np.ndarray:
        """The bridge at all grid times: 1 before the window, burn inside, 0 from the anchor.

        The clock increases with time, so the live times are the window's
        first ones, and the bridge values go straight into the output.
        """
        out = np.zeros((z.shape[0], times.size))
        out[:, : self.inside[0]] = 1.0
        out[:, self.inside[self.live]] = bridge_increment_values(z, self.sigmas)
        return out


def bridge_exponential(m: int, anchor: float, grid: GridSpec) -> PathFamily:
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
    window = BridgeWindow.on(times, anchor, length)
    if window.inside.size == 0:
        raise GridError(
            f"window [{start}, {anchor}) shorter than one grid step: refine "
            f"the grid near the anchor"
        )

    def fill_block(z: np.ndarray) -> np.ndarray:
        return window.rows(z, times)

    return PathFamily(times, window.n_draws, fill_block)


def single_jump_approx(a: float, m: int, anchor: float, grid: GridSpec) -> PathFamily:
    """The one-drop family a + (1-a) * bridge: 1 before the window, a from the anchor on."""
    if not 0.0 <= a < 1.0:
        raise ValueError(f"need 0 <= a < 1, got {a}")
    return bridge_exponential(m, anchor, grid).affine(1.0 - a, a)


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

    def values(self, times) -> np.ndarray:
        """Levels at ``times``: H_k after k jumps, and the old level holds at a jump time."""
        return np.asarray(self.levels)[np.searchsorted(self.jump_times, times, side="left")]

    def drops(self) -> List[Tuple[float, float]]:
        """(jump time, drop size) for every jump that lowers the level."""
        return [
            (rho, self.levels[k] - self.levels[k + 1])
            for k, rho in enumerate(self.jump_times)
            if self.levels[k] != self.levels[k + 1]
        ]


def suicide_martingale(g: SimpleNonincreasing, m: int, grid: GridSpec) -> PathFamily:
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
    drops = [(drop, BridgeWindow.on(times, rho + length, length)) for rho, drop in g.drops()]
    n_draws = sum(w.n_draws for _, w in drops)

    def fill_block(z: np.ndarray) -> np.ndarray:
        out = np.full((z.shape[0], times.size), g.levels[0])
        off = 0
        for drop, window in drops:
            # out -= drop * (1 - bridge) where the bridge is not 1: inside the
            # window, and on the grid's tail from the anchor on, where it is 0
            out[:, window.inside] -= drop * (1.0 - window.values(z[:, off : off + window.n_draws]))
            out[:, np.searchsorted(times, window.anchor) :] -= drop
            off += window.n_draws
        return out

    return PathFamily(times, n_draws, fill_block)


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
    if np.isnan(vals).any() or np.any(np.diff(vals) > 1e-15):
        raise ValueError("input path must be nonincreasing")

    step = 2.0**-k
    n_steps = max(int(math.floor(float(times[-1]) / step + 1e-12)), 0)
    samples = step_values(times, vals, np.arange(n_steps + 1) * step)
    # a drop is a sample below every sample before it
    drops = np.nonzero(samples[1:] < np.minimum.accumulate(samples)[:-1])[0] + 1
    return SimpleNonincreasing(
        tuple((drops * step).tolist()), tuple(samples[np.r_[0, drops]].tolist())
    )
