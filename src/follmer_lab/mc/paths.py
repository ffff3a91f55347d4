"""Brownian path batches with reproducible per-path streams, built whole or in chunks."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Tuple

import numpy as np

from .grids import GridSpec, grid_index
from .streams import CHUNK_DRAWS, fill_paths


@dataclass
class PathBatch:
    """Per-path per-gridpoint values on a shared time grid.

    A builder returns the ``(n_paths, n_times)`` values of one range of
    paths, the whole batch by default.  Transform ``values`` in place
    (``*=``, ``+=``) rather than building a new matrix from it, and read
    columns through slice views rather than fancy-index copies.  Experiments
    that read the paths only through per-time means, exactness flags and a
    few columns never hold the whole batch: they build it in chunks
    (:class:`PathChunks`), so their peak memory is one chunk plus the
    columns they keep.
    """

    times: np.ndarray
    values: np.ndarray  # shape (n_paths, len(times))

    def at_time(self, t: float) -> np.ndarray:
        """Column of values at an exact grid time."""
        return self.values[:, grid_index(self.times, t)]


class PathChunks:
    """Paths [0, n_paths) built chunk by chunk into one reused buffer, with per-time sums.

    Iterating yields ``(first, out)`` for consecutive ranges of paths:
    ``out`` is a ``(count, n_times)`` view of the buffer, at most
    ``CHUNK_DRAWS`` values, for a builder to fill with paths
    [first, first + count) (``first=first, out=out``).  The next chunk
    overwrites it, so read what is kept of it, and call :meth:`add_to_sums`
    if its per-time sums are wanted, before asking for the next chunk.  The
    buffer is allocated once: a fresh array per chunk would pay its
    first-touch page faults on every chunk.

    The running sums sit in the buffer's row 0, just above the chunk, so
    adding a chunk is one axis-0 sum of that row and the chunk's rows in
    order: the sequential row sum that one axis-0 sum of the whole batch
    computes, bit for bit.  That holds for two or more columns only, as
    numpy sums a single column pairwise, so one column is refused.
    """

    def __init__(self, n_paths: int, n_times: int):
        if n_times < 2:
            raise ValueError(f"need n_times >= 2 for row-order sums, got {n_times}")
        self.n_paths = n_paths
        self.rows = max(1, CHUNK_DRAWS // n_times)
        self._buf = np.empty((min(self.rows, n_paths) + 1, n_times))
        self._count = 0  # rows of the chunk last yielded
        self._summed = False

    def __iter__(self) -> Iterator[Tuple[int, np.ndarray]]:
        for first in range(0, self.n_paths, self.rows):
            self._count = min(self.rows, self.n_paths - first)
            yield first, self._buf[1 : 1 + self._count]

    def add_to_sums(self) -> None:
        """Add the rows of the chunk last yielded to the per-time sums, in row order."""
        # the first chunk's sum starts as numpy starts it, without row 0
        start = 1 if not self._summed else 0
        np.add.reduce(self._buf[start : 1 + self._count], axis=0, out=self._buf[0])
        self._summed = True

    @property
    def sums(self) -> np.ndarray:
        """Per-time sums of the rows added so far."""
        return self._buf[0]


def simulate_bm(
    grid: GridSpec, n_paths: int, seed: int, first: int = 0, out: np.ndarray | None = None
) -> PathBatch:
    """Standard Brownian motion sampled exactly at the grid times.

    Increments are independent N(0, dt) draws from each path's own stream, so
    the skeleton is exact in distribution at the grid times (no scheme bias).
    Builds paths [first, first + n_paths), into ``out`` when given
    (:func:`~follmer_lab.mc.streams.fill_paths`).
    """
    if n_paths < 1:
        raise ValueError(f"need n_paths >= 1, got {n_paths}")
    times = grid.points()
    dt = np.diff(times)
    sqrt_dt = np.sqrt(dt)

    def fill_block(z: np.ndarray) -> np.ndarray:
        bm = np.empty((z.shape[0], times.size))
        bm[:, 0] = 0.0
        np.cumsum(z * sqrt_dt, axis=1, out=bm[:, 1:])
        return bm

    values = fill_paths(n_paths, dt.size, fill_block, times.size, seed, first=first, out=out)
    return PathBatch(times, values)
