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
from fractions import Fraction
from typing import Sequence

import numpy as np

from .bridges import _bridge_row
from .paths import PathBatch
from .grids import GridSpec, step_value
from .streams import fill_paths


def in_S(t, n_max: int, n_min: int = 1) -> bool:
    """Is t inside some mass-loss interval (k 2^-m, k 2^-m + 2^-3m), m in [n_min, n_max]?

    Exact rational arithmetic: floats are converted via Fraction so dyadic
    endpoint exclusions are decided correctly.
    """
    t = Fraction(t) if not isinstance(t, Fraction) else t
    if t <= 0:
        return False
    for m in range(n_min, n_max + 1):
        step = Fraction(1, 2**m)
        width = Fraction(1, 2 ** (3 * m))
        k = t // step  # candidate interval index: k*step < t iff t not on the grid
        if k * step < t < k * step + width:
            return True
    return False


def left_value(times: np.ndarray, values: np.ndarray, t: float) -> float:
    """Left limit surrogate of a sampled step path: the value just before t."""
    idx = np.searchsorted(times, t, side="left") - 1
    return float(values[max(idx, 0)])


def _phase_schedule(m: int, t_max: float) -> list:
    """Phase intervals (start, end, dyadic target time) at level m, within [0, t_max]."""
    step = 2.0**-m
    width = 2.0 ** (-3 * m)
    k_max = min(int(math.floor(t_max / step + 1e-12)), m * 2**m)
    out = []
    for k in range(1, k_max + 1):
        start = k * step
        out.append((start, start + width, start))
    return out


def fatou_path(
    times: np.ndarray,
    d_values: np.ndarray,
    m: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """One path of the level-m schedule for the nonincreasing path ``d_values``.

    Holds the last completed dyadic sample between phases and bridges the
    decrement inside each phase.
    """
    phases = _phase_schedule(m, float(times[-1]))
    out = np.empty(times.size)
    # bridge rows are drawn per phase, lazily, in phase order for determinism
    bridge_cache = {}
    for j, t in enumerate(times):
        completed = [p for p in phases if p[1] <= t]
        level = (
            step_value(times, d_values, completed[-1][2]) if completed else float(d_values[0])
        )
        active = next((p for p in phases if p[0] < t < p[1]), None)
        if active is None:
            out[j] = level
            continue
        start, end, target = active
        prev = level  # the level held entering this phase: last completed sample
        nxt = step_value(times, d_values, target)
        if nxt == prev:
            out[j] = level
            continue
        key = (start, end)
        if key not in bridge_cache:
            bridge_cache[key] = _bridge_row(rng, times, end, end - start)
        e = bridge_cache[key][j]
        out[j] = nxt + (prev - nxt) * e
    return out


def fatou_approx(
    grid: GridSpec,
    m_values: Sequence[float],
    d_values: Sequence[float],
    m: int,
    n_paths: int,
    seed: int,
) -> PathBatch:
    """Batch of Z^(m) = M + (level-m schedule of D) for deterministic M and D paths."""
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    times = grid.points()
    m_arr = np.asarray(m_values, dtype=float)
    d_arr = np.asarray(d_values, dtype=float)
    if m_arr.size != times.size or d_arr.size != times.size:
        raise ValueError("M and D paths must be sampled on the grid")
    if np.any(np.diff(d_arr) > 1e-15):
        raise ValueError("D path must be nonincreasing")

    def fill_one(i: int, rng: np.random.Generator) -> np.ndarray:
        return m_arr + fatou_path(times, d_arr, m, rng)

    values = fill_paths(n_paths, fill_one, times.size, seed)
    return PathBatch(times, values, seed, kind="fatou")


def fatou_probe_error(
    batch: PathBatch,
    m_values: Sequence[float],
    d_values: Sequence[float],
    t: float,
) -> np.ndarray:
    """|Z^(m)_t - (M_t + D_{t-})| per path at a probe time."""
    times = batch.times
    m_arr = np.asarray(m_values, dtype=float)
    d_arr = np.asarray(d_values, dtype=float)
    idx = np.nonzero(np.isclose(times, t, rtol=0.0, atol=1e-12))[0]
    if idx.size != 1:
        raise KeyError(f"probe {t} is not a grid point")
    target = m_arr[idx[0]] + left_value(times, d_arr, t)
    return np.abs(batch.values[:, idx[0]] - target)
