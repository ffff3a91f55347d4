"""Counter-based per-path random streams and order-independent aggregation.

Each path draws from a Philox generator keyed by (master seed, path index),
so replaying any (seed, index) pair reproduces the path bit-exactly and the
result of a batch does not depend on how paths are distributed over workers.
``FOLLMER_LAB_THREADS`` bounds the worker count without changing any output:
workers write into disjoint slices of preallocated arrays.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Optional

import numpy as np


def path_generator(seed: int, index: int) -> np.random.Generator:
    """The stream for one path: Philox keyed by the seed and the path counter."""
    key = np.array([np.uint64(seed & 0xFFFFFFFFFFFFFFFF), np.uint64(index)])
    return np.random.Generator(np.random.Philox(key=key))


def thread_count() -> int:
    raw = os.environ.get("FOLLMER_LAB_THREADS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def fill_paths(
    n_paths: int,
    fill_one: Callable[[int, np.random.Generator], np.ndarray],
    n_cols: int,
    seed: int,
) -> np.ndarray:
    """Evaluate ``fill_one(path_index, rng)`` for every path into a 2-D array.

    Results are identical for any worker count: each path uses its own keyed
    stream and writes only its own row.
    """
    out = np.empty((n_paths, n_cols), dtype=np.float64)

    def run_block(lo: int, hi: int) -> None:
        for i in range(lo, hi):
            out[i, :] = fill_one(i, path_generator(seed, i))

    workers = min(thread_count(), n_paths)
    if workers <= 1:
        run_block(0, n_paths)
    else:
        block = (n_paths + workers - 1) // workers
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [
                pool.submit(run_block, lo, min(lo + block, n_paths))
                for lo in range(0, n_paths, block)
            ]
            for f in futures:
                f.result()
    return out


def mean_and_se(values: np.ndarray) -> tuple:
    """Sample mean and its standard error (pairwise numpy summation)."""
    n = values.size
    mean = float(np.sum(values) / n)
    if n < 2:
        return mean, float("inf")
    var = float(np.sum((values - mean) ** 2) / (n - 1))
    return mean, math.sqrt(var / n)


def median_of_means(values: np.ndarray, n_blocks: int = 32) -> float:
    """Median of block means: a heavy-tail-robust location estimate.

    Blocks are contiguous in path order, so the estimate is independent of
    worker count.
    """
    n = values.size
    n_blocks = max(1, min(n_blocks, n))
    edges = np.linspace(0, n, n_blocks + 1, dtype=int)
    means = [float(np.mean(values[lo:hi])) for lo, hi in zip(edges[:-1], edges[1:])]
    return float(np.median(means))


def mom_standard_error(values: np.ndarray) -> float:
    """Scale for the median-of-means estimate: sqrt(pi/2) times the mean's SE."""
    _, se = mean_and_se(values)
    return math.sqrt(math.pi / 2.0) * se
