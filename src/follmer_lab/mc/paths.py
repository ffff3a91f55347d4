"""Brownian path batches with reproducible per-path streams."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import GridError
from .grids import GridSpec
from .streams import fill_paths


@dataclass
class PathBatch:
    """Per-path per-gridpoint values plus the stream bookkeeping to replay them."""

    times: np.ndarray
    values: np.ndarray  # shape (n_paths, len(times))
    seed: int
    kind: str = "paths"

    @property
    def n_paths(self) -> int:
        return int(self.values.shape[0])

    def at_time(self, t: float) -> np.ndarray:
        """Column of values at an exact grid time."""
        idx = np.nonzero(np.isclose(self.times, t, rtol=0.0, atol=1e-12))[0]
        if idx.size != 1:
            raise GridError(f"time {t} is not a grid point")
        return self.values[:, idx[0]]


def simulate_bm(grid: GridSpec, n_paths: int, seed: int) -> PathBatch:
    """Standard Brownian motion sampled exactly at the grid times.

    Increments are independent N(0, dt) draws from each path's own stream, so
    the skeleton is exact in distribution at the grid times (no scheme bias).
    """
    if n_paths < 1:
        raise ValueError(f"need n_paths >= 1, got {n_paths}")
    times = grid.points()
    if times[0] != 0.0:
        raise GridError("Brownian grid must start at 0")
    dt = np.diff(times)
    sqrt_dt = np.sqrt(dt)

    def fill_one(i: int, rng: np.random.Generator) -> np.ndarray:
        steps = rng.standard_normal(dt.size) * sqrt_dt
        out = np.empty(times.size)
        out[0] = 0.0
        np.cumsum(steps, out=out[1:])
        return out

    values = fill_paths(n_paths, fill_one, times.size, seed)
    return PathBatch(times, values, seed, kind="brownian")
