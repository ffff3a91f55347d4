"""Counter-based per-path random streams and the path-order aggregation helpers.

Each path draws from a Philox generator keyed by (master seed, path index),
so replaying any (seed, index) pair reproduces the path bit-exactly, and the
first k paths of a batch do not depend on how many paths follow them.
:func:`fill_paths` draws each path's variates in one call and hands blocks
of paths to array code, so families do their path arithmetic on whole
blocks while every row still reads only its own stream.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

MOM_BLOCKS = 32
# Paths per drawn block, and the most variates one block may hold: together
# they bound the memory of a block whatever the path count.
CHUNK_PATHS = 256
CHUNK_DRAWS = 1 << 18


def path_generator(seed: int, index: int) -> np.random.Generator:
    """The stream for one path: Philox keyed by the seed and the path counter."""
    key = np.array([np.uint64(seed & 0xFFFFFFFFFFFFFFFF), np.uint64(index)])
    return np.random.Generator(np.random.Philox(key=key))


def fill_paths(
    n_paths: int,
    n_draws: int,
    fill_block: Callable[[np.ndarray], np.ndarray],
    n_cols: int,
    seed: int,
    uniform: bool = False,
) -> np.ndarray:
    """Draw every path's variates in blocks and map each block to its rows.

    Path i draws its first ``n_draws`` variates from the stream keyed by
    (seed, i) in one call: standard normals, or uniforms on [0, 1) when
    ``uniform``.  Draws from one stream concatenate (n variates in one call
    equal the same n drawn in pieces), so a family may cut a row into
    consecutive pieces, one per window, phase or step, exactly as if each
    piece had been drawn in turn; a path that stops early leaves the tail of
    its row unused.  Consecutive paths are stacked into blocks of at most ``CHUNK_PATHS``
    rows (fewer when a row holds more than ``CHUNK_DRAWS // CHUNK_PATHS``
    variates, but at least one), and ``fill_block(draws)`` maps a
    ``(rows, n_draws)`` block to the ``(rows, n_cols)`` output of those paths.
    ``fill_block`` must treat rows independently; then row i depends on
    (seed, i) alone, and the first k rows of an n-path batch equal a k-path
    batch (the prefix property).  This is the one place where path streams
    are created.
    """
    out = np.empty((n_paths, n_cols), dtype=np.float64)
    rows = max(1, min(CHUNK_PATHS, CHUNK_DRAWS // max(n_draws, 1)))
    for lo in range(0, n_paths, rows):
        hi = min(lo + rows, n_paths)
        draws = np.empty((hi - lo, n_draws), dtype=np.float64)
        for i in range(lo, hi):
            rng = path_generator(seed, i)
            draws[i - lo] = rng.random(n_draws) if uniform else rng.standard_normal(n_draws)
        out[lo:hi] = fill_block(draws)
    return out


def mean_and_se(values: np.ndarray) -> tuple:
    """Sample mean and its standard error (pairwise numpy summation)."""
    n = values.size
    mean = float(np.sum(values) / n)
    if n < 2:
        return mean, float("inf")
    var = float(np.sum((values - mean) ** 2) / (n - 1))
    return mean, math.sqrt(var / n)


def median_of_means(values: np.ndarray) -> float:
    """Median of ``MOM_BLOCKS`` block means: a heavy-tail-robust location estimate.

    Blocks are contiguous runs of paths in path order.
    """
    n = values.size
    n_blocks = max(1, min(MOM_BLOCKS, n))
    edges = np.linspace(0, n, n_blocks + 1, dtype=int)
    means = [float(np.mean(values[lo:hi])) for lo, hi in zip(edges[:-1], edges[1:])]
    return float(np.median(means))


def mom_standard_error(values: np.ndarray) -> float:
    """Scale for the median-of-means estimate: sqrt(pi/2) times the mean's SE."""
    _, se = mean_and_se(values)
    return math.sqrt(math.pi / 2.0) * se
