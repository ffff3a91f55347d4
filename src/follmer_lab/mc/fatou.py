"""Fatou schedules: mass-loss phases on a dyadic clock and the exceptional set.

The level-m approximation of a nonincreasing path holds each dyadic sample
D(k 2^-m) between phases and burns the decrement inside the short phase
interval (k 2^-m, k 2^-m + 2^-3m) through a bridge.  The exceptional set
collects the points covered by phase intervals; probes clear of every phase
interval up to the scan depth see the approximation land exactly on the left
limit of the path once the dyadic clock resolves its jumps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Tuple

import numpy as np

from .bridges import BridgeWindow
from .grids import GridSpec, grid_index, step_values
from .paths import PathFamily


def in_S(t, n_max: int) -> bool:
    """Is t inside some mass-loss interval (k 2^-m, k 2^-m + 2^-3m), m in [1, n_max]?

    Exact rational arithmetic: floats are converted via Fraction so dyadic
    endpoint exclusions are decided correctly.
    """
    t = Fraction(t) if not isinstance(t, Fraction) else t
    if t <= 0:
        return False
    for m in range(1, n_max + 1):
        step = Fraction(1, 2**m)
        width = Fraction(1, 2 ** (3 * m))
        k = t // step  # candidate interval index: k*step < t iff t not on the grid
        if k * step < t < k * step + width:
            return True
    return False


def _phase_schedule(m: int, t_max: float) -> Tuple[np.ndarray, np.ndarray]:
    """Starts and ends of the phase intervals at level m within [0, t_max]; each burns down to D(start)."""
    step = 2.0**-m
    k_max = min(int(math.floor(t_max / step + 1e-12)), m * 2**m)
    starts = np.arange(1, k_max + 1) * step
    return starts, starts + 2.0 ** (-3 * m)


@dataclass(frozen=True)
class _BridgedPhase:
    """A phase whose decrement is burned through a bridge, and where it shows on the grid."""

    window: BridgeWindow
    cols: np.ndarray  # grid indices strictly inside the phase
    at: np.ndarray  # their positions among the window's inside indices
    prev: float  # level held entering the phase
    nxt: float  # dyadic sample the phase burns down to


@dataclass(frozen=True)
class FatouSchedule:
    """The path-independent part of the level-m schedule of a nonincreasing path.

    ``level`` is the value every path holds at each grid time outside a
    bridged phase; ``bridged`` lists the phases that burn a decrement, in
    phase order, which is the order a path draws their normals.
    """

    level: np.ndarray
    bridged: Tuple[_BridgedPhase, ...]

    @classmethod
    def build(cls, times: np.ndarray, d_values: np.ndarray, m: int) -> "FatouSchedule":
        starts, ends = _phase_schedule(m, float(times[-1]))
        # the last completed dyadic sample before each phase, and before each time
        held = np.r_[d_values[0], step_values(times, d_values, starts)]
        level = held[np.searchsorted(ends, times, side="right")]
        # phases are disjoint and sorted: the one that can hold t has the last start < t
        active = np.searchsorted(starts, times, side="left") - 1
        in_phase = active >= 0
        in_phase[in_phase] = times[in_phase] < ends[active[in_phase]]
        active[~in_phase] = -1
        bridged = []
        for k in np.unique(active[in_phase]).tolist():
            prev, nxt = held[k : k + 2].tolist()
            if nxt == prev:
                continue
            window = BridgeWindow.on(times, ends[k], ends[k] - starts[k])
            cols = np.nonzero(active == k)[0]
            at = np.searchsorted(window.inside, cols)
            bridged.append(_BridgedPhase(window, cols, at, prev, nxt))
        return cls(level, tuple(bridged))

    @property
    def n_draws(self) -> int:
        return sum(p.window.n_draws for p in self.bridged)


def fatou_path(schedule: FatouSchedule, z: np.ndarray) -> np.ndarray:
    """A block of paths of the level-m schedule, one row per row of normals ``z``.

    Holds the last completed dyadic sample between phases and bridges the
    decrement inside each phase.
    """
    # not np.tile: its generator expressions leave garbage that only the cyclic collector frees
    out = np.broadcast_to(schedule.level, (z.shape[0], schedule.level.size)).copy()
    off = 0
    for p in schedule.bridged:
        e = p.window.values(z[:, off : off + p.window.n_draws])
        off += p.window.n_draws
        out[:, p.cols] = p.nxt + (p.prev - p.nxt) * e[:, p.at]
    return out


def fatou_approx(
    grid: GridSpec,
    m_values: Sequence[float],
    d_values: Sequence[float],
    m: int,
) -> PathFamily:
    """The family Z^(m) = M + (level-m schedule of D) for deterministic M and D paths."""
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    times = grid.points()
    m_arr = np.asarray(m_values, dtype=float)
    d_arr = np.asarray(d_values, dtype=float)
    if m_arr.size != times.size or d_arr.size != times.size:
        raise ValueError("M and D paths must be sampled on the grid")
    if np.any(np.diff(d_arr) > 1e-15):
        raise ValueError("D path must be nonincreasing")
    schedule = FatouSchedule.build(times, d_arr, m)

    def fill_block(z: np.ndarray) -> np.ndarray:
        return m_arr + fatou_path(schedule, z)

    return PathFamily(times, schedule.n_draws, fill_block)


def fatou_probe_error(
    times: np.ndarray,
    column: np.ndarray,
    m_values: Sequence[float],
    d_values: Sequence[float],
    t: float,
) -> np.ndarray:
    """|Z^(m)_t - (M_t + D_{t-})| per path at a probe time t of the grid ``times``.

    ``column`` holds the paths' values of Z^(m) at t.
    """
    m_arr = np.asarray(m_values, dtype=float)
    d_arr = np.asarray(d_values, dtype=float)
    j = grid_index(times, t)
    target = m_arr[j] + step_values(times, d_arr, t, side="left")
    return np.abs(column - target)
