"""Path families on a time grid, read in blocks from reproducible per-path streams.

A builder does the path-independent set-up of a family once, such as its grid
times, burn-in windows or phase schedule, and returns a :class:`PathFamily`.
Every read of a family is a loop over the blocks of
:func:`~follmer_lab.mc.streams.draw_blocks`, the one block policy, so no
read holds more than one block's draws and values beside what it returns.
:meth:`PathFamily.chunks` adds each block to per-time sums, for the runners
that report mean paths and exactness flags; it is the only read that sums.
:meth:`PathFamily.columns` keeps the few grid columns a runner reports.
:meth:`PathFamily.affine` scales and shifts a family on the same draws.
A family returns paths only: the runners estimate from them.
Path i reads stream (seed, i) alone, so a block's rows, and the kept
columns, are those of the whole batch (:meth:`PathFamily.batch`, the tests'
reference).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Sequence, Tuple

import numpy as np

from .grids import GridSpec
from .streams import draw_blocks, fill_paths


@dataclass(frozen=True)
class PathFamily:
    """A family of paths on the grid ``times``, set up once and drawn any number of times.

    Each path reads ``n_draws`` standard normals from its own stream, and
    ``fill_block`` maps a block of them, one row per path, to the paths'
    values at ``times``.  Each read loops over the blocks of
    :func:`~follmer_lab.mc.streams.draw_blocks`, of at most
    ``CHUNK_VALUES`` values: add them to per-time sums (:meth:`chunks`),
    which holds one block buffer beside the draws; keep a few of their
    columns (:meth:`columns`), which holds the draws and one block's values
    beside the kept rows; or draw the whole ``(n_paths, n_times)`` matrix
    (:meth:`batch`), which only the tests do, as the reference for the
    other two.
    """

    times: np.ndarray
    n_draws: int
    fill_block: Callable[[np.ndarray], np.ndarray]

    def batch(self, n_paths: int, seed: int) -> np.ndarray:
        """The values of paths [0, n_paths) of stream ``seed``, one row a path, all at once."""
        return fill_paths(n_paths, self.n_draws, self.fill_block, self.times.size, seed)

    def chunks(self, n_paths: int, seed: int) -> Iterator[Tuple[int, np.ndarray, np.ndarray]]:
        """Paths [0, n_paths) of stream ``seed``, block by block, with running per-time sums.

        Yields ``(first, values, sums)``: ``values`` holds paths
        [first, first + len(values)), one block of
        :func:`~follmer_lab.mc.streams.draw_blocks`, and ``sums`` the
        per-time sums of paths [0, first + len(values)).  Both are views of
        one buffer, allocated for the first block and refilled, as a fresh
        array per block would pay its first-touch page faults on every
        block: read what is kept of a block before asking for the next.

        The sums sit in the buffer's row 0, just above the block, so adding
        a block is one axis-0 sum of that row and the block's rows in order:
        the sequential row sum that one axis-0 sum of the whole batch
        computes, bit for bit.  That holds for two or more columns only, as
        numpy sums a single column pairwise, so one column is refused.
        """
        n_times = self.times.size
        if n_times < 2:
            raise ValueError(f"need n_times >= 2 for row-order sums, got {n_times}")
        for first, draws in draw_blocks(n_paths, self.n_draws, n_times, seed):
            if not first:  # the first block is the largest
                buf = np.empty((len(draws) + 1, n_times))
            values = buf[1 : 1 + len(draws)]
            values[...] = self.fill_block(draws)
            # the first block's sum starts as numpy starts it, without row 0
            np.add.reduce(buf[int(first == 0) : 1 + len(values)], axis=0, out=buf[0])
            yield first, values, buf[0]

    def columns(self, n_paths: int, seed: int, idx: Sequence[int]) -> np.ndarray:
        """The values of paths [0, n_paths) of stream ``seed`` at grid indices ``idx``, one row each.

        Keeps the ``idx`` columns of each block of
        :func:`~follmer_lab.mc.streams.draw_blocks`, so beside the returned
        rows only the draws buffer and one block's values are held, and no
        per-time sum is computed.
        """
        for first, draws in draw_blocks(n_paths, self.n_draws, self.times.size, seed):
            if not first:  # allocated once draw_blocks has accepted n_paths
                out = np.empty((len(idx), n_paths))
            out[:, first : first + len(draws)] = self.fill_block(draws)[:, idx].T
        return out

    def affine(self, scale: float, shift: float) -> "PathFamily":
        """shift + scale * this family, on the same draws: each block is scaled, then shifted, in place."""

        def fill_block(z: np.ndarray) -> np.ndarray:
            rows = self.fill_block(z)
            rows *= scale
            rows += shift
            return rows

        return PathFamily(self.times, self.n_draws, fill_block)


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
