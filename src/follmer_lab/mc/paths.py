"""Brownian path batches with reproducible per-path streams."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import GridSpec, grid_index
from .streams import fill_paths


@dataclass
class PathBatch:
    """Per-path per-gridpoint values on a shared time grid.

    ``values`` is the only ``(n_paths, n_times)`` array an experiment holds:
    transform it in place (``*=``, ``+=``) rather than building a new matrix
    from it, and read columns through slice views rather than fancy-index
    copies.  At the gallery's path counts one such matrix is the experiment's
    peak memory.
    """

    times: np.ndarray
    values: np.ndarray  # shape (n_paths, len(times))

    def at_time(self, t: float) -> np.ndarray:
        """Column of values at an exact grid time."""
        return self.values[:, grid_index(self.times, t)]


def simulate_bm(grid: GridSpec, n_paths: int, seed: int) -> PathBatch:
    """Standard Brownian motion sampled exactly at the grid times.

    Increments are independent N(0, dt) draws from each path's own stream, so
    the skeleton is exact in distribution at the grid times (no scheme bias).
    """
    if n_paths < 1:
        raise ValueError(f"need n_paths >= 1, got {n_paths}")
    times = grid.points()
    dt = np.diff(times)
    sqrt_dt = np.sqrt(dt)

    def fill_block(z: np.ndarray) -> np.ndarray:
        out = np.empty((z.shape[0], times.size))
        out[:, 0] = 0.0
        np.cumsum(z * sqrt_dt, axis=1, out=out[:, 1:])
        return out

    values = fill_paths(n_paths, dt.size, fill_block, times.size, seed)
    return PathBatch(times, values)
