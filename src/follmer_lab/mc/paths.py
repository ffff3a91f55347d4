"""Path families on a time grid, streamed in chunks from reproducible per-path streams.

A builder does the path-independent set-up of a family once, such as its grid
times, burn-in windows or phase schedule, and returns a :class:`PathFamily`.
The experiments read a family only through :meth:`PathFamily.chunks`: per-time
sums and exactness flags chunk by chunk, or the few columns they report
through :meth:`PathFamily.columns`.  Path i reads stream (seed, i) alone, so a
chunk's rows are those rows of the whole batch (:meth:`PathFamily.batch`, the
tests' reference).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Sequence, Tuple

import numpy as np

from .grids import GridSpec
from .streams import CHUNK_DRAWS, fill_paths


@dataclass(frozen=True)
class PathFamily:
    """A family of paths on the grid ``times``, set up once and drawn any number of times.

    Each path reads ``n_draws`` standard normals from its own stream, and
    ``fill_block`` maps a block of them, one row per path, to the paths'
    values at ``times`` (:func:`~follmer_lab.mc.streams.fill_paths`).
    There are three ways to read it: stream it chunk by chunk
    (:meth:`chunks`), keep a few of its columns (:meth:`columns`, through
    ``chunks``), or draw the whole ``(n_paths, n_times)`` matrix at once
    (:meth:`batch`), which only the tests do, as the reference for the other
    two.
    """

    times: np.ndarray
    n_draws: int
    fill_block: Callable[[np.ndarray], np.ndarray]

    def batch(self, n_paths: int, seed: int) -> np.ndarray:
        """The values of paths [0, n_paths) of stream ``seed``, one row a path, all at once."""
        if n_paths < 1:
            raise ValueError(f"need n_paths >= 1, got {n_paths}")
        return fill_paths(n_paths, self.n_draws, self.fill_block, self.times.size, seed)

    def chunks(self, n_paths: int, seed: int) -> Iterator[Tuple[int, np.ndarray, np.ndarray]]:
        """Paths [0, n_paths) of stream ``seed``, chunk by chunk, with running per-time sums.

        Yields ``(first, values, sums)``: ``values`` holds paths
        [first, first + len(values)), at most ``CHUNK_DRAWS`` values, and
        ``sums`` the per-time sums of paths [0, first + len(values)).  Both
        are views of one buffer, allocated once and refilled, as a fresh
        array per chunk would pay its first-touch page faults on every chunk:
        read what is kept of a chunk before asking for the next.

        The sums sit in the buffer's row 0, just above the chunk, so adding a
        chunk is one axis-0 sum of that row and the chunk's rows in order:
        the sequential row sum that one axis-0 sum of the whole batch
        computes, bit for bit.  That holds for two or more columns only, as
        numpy sums a single column pairwise, so one column is refused.
        """
        n_times = self.times.size
        if n_times < 2:
            raise ValueError(f"need n_times >= 2 for row-order sums, got {n_times}")
        rows = max(1, CHUNK_DRAWS // n_times)
        buf = np.empty((min(rows, n_paths) + 1, n_times))
        for first in range(0, n_paths, rows):
            values = buf[1 : 1 + min(rows, n_paths - first)]
            fill_paths(len(values), self.n_draws, self.fill_block, n_times, seed, first=first, out=values)
            # the first chunk's sum starts as numpy starts it, without row 0
            np.add.reduce(buf[int(first == 0) : 1 + len(values)], axis=0, out=buf[0])
            yield first, values, buf[0]

    def columns(self, n_paths: int, seed: int, idx: Sequence[int]) -> np.ndarray:
        """The values of paths [0, n_paths) of stream ``seed`` at grid indices ``idx``, one row each.

        Streamed through :meth:`chunks`, so beside the returned rows only one
        chunk is held.
        """
        if n_paths < 1:
            raise ValueError(f"need n_paths >= 1, got {n_paths}")
        out = np.empty((len(idx), n_paths))
        for first, values, _ in self.chunks(n_paths, seed):
            out[:, first : first + len(values)] = values[:, idx].T
        return out


def simulate_bm(grid: GridSpec) -> PathFamily:
    """Standard Brownian motion sampled exactly at the grid times.

    Increments are independent N(0, dt) draws from each path's own stream, so
    the skeleton is exact in distribution at the grid times (no scheme bias).
    """
    times = grid.points()
    dt = np.diff(times)
    sqrt_dt = np.sqrt(dt)

    def fill_block(z: np.ndarray) -> np.ndarray:
        bm = np.empty((z.shape[0], times.size))
        bm[:, 0] = 0.0
        np.cumsum(z * sqrt_dt, axis=1, out=bm[:, 1:])
        return bm

    return PathFamily(times, dt.size, fill_block)
