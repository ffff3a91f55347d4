"""Path families on a time grid, read in blocks from reproducible per-path streams.

A builder does the path-independent set-up of a family once, such as its grid
times, burn-in windows or phase schedule, and returns a :class:`PathFamily`.
The experiments read a family in one of two ways.  :meth:`PathFamily.chunks`
streams it chunk by chunk with per-time sums, for the runners that report
mean paths and exactness flags; it is the only read that sums.
:meth:`PathFamily.columns` keeps the few grid columns a runner reports,
straight from :func:`~follmer_lab.mc.streams.fill_paths`' blocks, and holds
no chunk.  Path i reads stream (seed, i) alone, so a chunk's rows, and the
kept columns, are those of the whole batch (:meth:`PathFamily.batch`, the
tests' reference).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Sequence, Tuple

import numpy as np

from .grids import GridSpec
from .streams import CHUNK_DRAWS, fill_paths

# Path values per chunk of ``PathFamily.chunks``, a quarter of a draws block:
# a chunk adds at most 512 KiB to a read, in chunks still large enough that
# the per-chunk work does not show beside the draws.
CHUNK_VALUES = CHUNK_DRAWS // 4


@dataclass(frozen=True)
class PathFamily:
    """A family of paths on the grid ``times``, set up once and drawn any number of times.

    Each path reads ``n_draws`` standard normals from its own stream, and
    ``fill_block`` maps a block of them, one row per path, to the paths'
    values at ``times`` (:func:`~follmer_lab.mc.streams.fill_paths`).
    There are three ways to read it: stream it chunk by chunk with per-time
    sums (:meth:`chunks`), which holds one chunk buffer beside the draws;
    keep a few of its columns (:meth:`columns`), which holds only the
    draws and one block's values beside the kept rows; or draw the whole
    ``(n_paths, n_times)`` matrix at once (:meth:`batch`), which only the
    tests do, as the reference for the other two.
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
        [first, first + len(values)), at most ``CHUNK_VALUES`` values or one
        row, and ``sums`` the per-time sums of paths [0, first + len(values)).
        Both are views of one buffer, allocated once and refilled, as a fresh
        array per chunk would pay its first-touch page faults on every chunk:
        read what is kept of a chunk before asking for the next.

        The sums sit in the buffer's row 0, just above the chunk, so adding a
        chunk is one axis-0 sum of that row and the chunk's rows in order:
        the sequential row sum that one axis-0 sum of the whole batch
        computes, bit for bit.  That holds for two or more columns only, as
        numpy sums a single column pairwise, so one column is refused.
        """
        if n_paths < 1:
            raise ValueError(f"need n_paths >= 1, got {n_paths}")
        n_times = self.times.size
        if n_times < 2:
            raise ValueError(f"need n_times >= 2 for row-order sums, got {n_times}")
        rows = max(1, CHUNK_VALUES // n_times)
        buf = np.empty((min(rows, n_paths) + 1, n_times))
        for first in range(0, n_paths, rows):
            values = buf[1 : 1 + min(rows, n_paths - first)]
            fill_paths(len(values), self.n_draws, self.fill_block, n_times, seed, first=first, out=values)
            # the first chunk's sum starts as numpy starts it, without row 0
            np.add.reduce(buf[int(first == 0) : 1 + len(values)], axis=0, out=buf[0])
            yield first, values, buf[0]

    def columns(self, n_paths: int, seed: int, idx: Sequence[int]) -> np.ndarray:
        """The values of paths [0, n_paths) of stream ``seed`` at grid indices ``idx``, one row each.

        Drawn by one :func:`~follmer_lab.mc.streams.fill_paths` call whose
        ``fill_block`` keeps only the ``idx`` columns of each block, so beside
        the returned rows only the call's draws buffer and one block's values
        are held, and no per-time sum is computed.
        """
        if n_paths < 1:
            raise ValueError(f"need n_paths >= 1, got {n_paths}")

        def fill_block(z: np.ndarray) -> np.ndarray:
            return self.fill_block(z)[:, idx]

        out = np.empty((len(idx), n_paths))
        fill_paths(n_paths, self.n_draws, fill_block, len(idx), seed, out=out.T)
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
