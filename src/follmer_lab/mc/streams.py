"""Counter-based per-path random streams and the path-order aggregation helpers.

Each path draws from a Philox generator keyed by (master seed, path index),
so replaying any (seed, index) pair reproduces the path bit-exactly, and the
first k paths of a batch do not depend on how many paths follow them.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

MOM_BLOCKS = 32


def path_generator(seed: int, index: int) -> np.random.Generator:
    """The stream for one path: Philox keyed by the seed and the path counter."""
    key = np.array([np.uint64(seed & 0xFFFFFFFFFFFFFFFF), np.uint64(index)])
    return np.random.Generator(np.random.Philox(key=key))


def fill_paths(
    n_paths: int,
    fill_one: Callable[[int, np.random.Generator], np.ndarray],
    n_cols: int,
    seed: int,
) -> np.ndarray:
    """Evaluate ``fill_one(path_index, rng)`` for every path into a 2-D array.

    Row i is drawn from the stream keyed by (seed, i) alone; this is the one
    place where path streams are created.
    """
    out = np.empty((n_paths, n_cols), dtype=np.float64)
    for i in range(n_paths):
        out[i, :] = fill_one(i, path_generator(seed, i))
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
