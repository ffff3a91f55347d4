"""Counter-based per-path random streams and the path-order aggregation helpers.

Each path draws from its own stream, keyed by (master seed, path index), so
replaying any (seed, index) pair reproduces the path bit-exactly, and any
range of paths [first, first + count) is the same whether it is built alone
or as part of a larger batch.  :func:`draw_blocks` is the one loop over
paths and the one block policy: it draws each path's variates in one call
into a draws buffer, one per generator and refilled span by span, and
yields them in blocks whose draws and values are bounded whatever the path
count and the grid.  Every Monte-Carlo read is a loop over it:
:func:`fill_paths` maps each block to its rows of one output array, and
:class:`~follmer_lab.mc.paths.PathFamily` keeps a few columns or per-time
sums of each block.  So families do their path arithmetic on whole blocks
while every row still reads only its own stream.

Stream v1, which every manifest replays under: stream (seed, i) is numpy's
Philox4x64-10 bit generator with key (seed mod 2^64, i), counter 0 and an
empty buffer (:func:`stream_state`), read through an ``np.random.Generator``.

- Normals are the generator's ``standard_normal``, numpy's ziggurat, whose
  tables exist only in compiled code.  :func:`draw_blocks` therefore still
  draws them path by path, on one private generator and one keyed state per
  generator, re-keyed to each path's index before its draws.
- Uniform j is the generator's ``random()``, ``(w_j >> 11) * 2^-53``, where
  the word w_j is word ``j mod 4`` of Philox4x64-10 applied to the counter
  ``(j // 4 + 1, 0, 0, 0)`` under the key.  :func:`uniform_words` computes
  these words as array code over many paths at once, with no generator
  (the counter-based construction of Salmon et al., "Parallel random
  numbers: as easy as 1, 2, 3", SC'11).

:func:`path_generator` is the per-path reference stream that the tests and
``selftest`` compare both against.
"""

from __future__ import annotations

import math
from typing import Callable, Iterator, Tuple

import numpy as np

MOM_BLOCKS = 32
# Paths per block of ``draw_blocks``, the most variates one block may hold,
# and the most path values a reader maps one block to: together they bound
# the memory of a block whatever the path count and the grid.  The values
# bound, a quarter of CHUNK_DRAWS, adds at most 512 KiB to a read, in blocks
# still large enough that the per-block work does not show beside the draws.
CHUNK_PATHS = 256
CHUNK_DRAWS = 1 << 18
CHUNK_VALUES = CHUNK_DRAWS // 4
# Uniforms drawn at once, across blocks: uniform words are array code whose
# per-call overhead dominates below a few thousand words.  Normals are drawn
# path by path anyway, so their span is one block.
SPAN_DRAWS = 1 << 12

_MASK64 = (1 << 64) - 1
# Philox4x64 round multipliers and key increments (Random123)
_PHILOX_M = (np.uint64(0xD2E7470EE14C6C93), np.uint64(0xCA5A826395121157))
_PHILOX_W = (np.uint64(0x9E3779B97F4A7C15), np.uint64(0xBB67AE8584CAA73B))
_PHILOX_ROUNDS = 10
_LOW32 = np.uint64(0xFFFFFFFF)
_32 = np.uint64(32)


def stream_state(seed: int, index: int) -> dict:
    """Philox state of stream (seed, index) before its first draw."""
    return {
        "bit_generator": "Philox",
        "state": {"counter": (0, 0, 0, 0), "key": (seed & _MASK64, index)},
        "buffer": (0, 0, 0, 0),
        "buffer_pos": 4,  # empty: the first draw computes counter 1
        "has_uint32": 0,
        "uinteger": 0,
    }


def _unkeyed_generator() -> np.random.Generator:
    # an explicit seed spares the OS entropy a keyless Philox gathers; the
    # caller overwrites the whole state with stream_state
    return np.random.Generator(np.random.Philox(0))


def path_generator(seed: int, index: int) -> np.random.Generator:
    """The stream for one path, as its own generator: the per-path reference."""
    rng = _unkeyed_generator()
    rng.bit_generator.state = stream_state(seed, index)
    return rng


def _mulhilo(a: np.uint64, b: np.ndarray):
    """High and low words of the 128-bit products a * b, from 32-bit halves."""
    a_lo, a_hi = a & _LOW32, a >> _32
    b_lo, b_hi = b & _LOW32, b >> _32
    ll, lh, hl = a_lo * b_lo, a_lo * b_hi, a_hi * b_lo
    carry = ((ll >> _32) + (lh & _LOW32) + (hl & _LOW32)) >> _32
    return a_hi * b_hi + (lh >> _32) + (hl >> _32) + carry, a * b


def uniform_words(seed: int, indices: np.ndarray, n_words: int) -> np.ndarray:
    """The first ``n_words`` 64-bit words of each stream (seed, i), i in ``indices``.

    Row r holds the words stream (seed, indices[r]) hands out in order: word
    j is word j mod 4 of Philox4x64-10 on counter (j // 4 + 1, 0, 0, 0).
    """
    indices = np.asarray(indices, dtype=np.uint64)
    n_blocks = -(-n_words // 4)
    with np.errstate(over="ignore"):
        k0 = np.full((indices.size, 1), seed & _MASK64, dtype=np.uint64)
        k1 = indices[:, None]
        zero = np.zeros((1, n_blocks), dtype=np.uint64)
        c = (np.arange(1, n_blocks + 1, dtype=np.uint64)[None, :], zero, zero, zero)
        for r in range(_PHILOX_ROUNDS):
            if r:
                k0, k1 = k0 + _PHILOX_W[0], k1 + _PHILOX_W[1]
            hi0, lo0 = _mulhilo(_PHILOX_M[0], c[0])
            hi1, lo1 = _mulhilo(_PHILOX_M[1], c[2])
            c = (hi1 ^ c[1] ^ k0, lo1, hi0 ^ c[3] ^ k1, lo0)
    words = np.stack(c, axis=-1).reshape(indices.size, 4 * n_blocks)
    return words[:, :n_words]


def draw_blocks(
    n_paths: int, n_draws: int, n_cols: int, seed: int, uniform: bool = False
) -> Iterator[Tuple[int, np.ndarray]]:
    """The variates of paths [0, n_paths), block by block: the one loop over paths.

    Yields ``(first, draws)``: row r of ``draws`` is path first + r, which
    draws its first ``n_draws`` variates from the stream keyed by
    (seed, first + r) in one call, standard normals or, when ``uniform``,
    uniforms on [0, 1).  Draws from one stream concatenate (n variates in
    one call equal the same n drawn in pieces), so a family may cut a row
    into consecutive pieces, one per window, phase or step, exactly as if
    each piece had been drawn in turn; a path that stops early leaves the
    tail of its row unused.  The blocks cover the paths in order, and every
    block but the last has the same number of rows, at most ``CHUNK_PATHS``,
    ``CHUNK_DRAWS`` variates and, for a reader that maps a row to ``n_cols``
    values, ``CHUNK_VALUES`` values, but at least one row.  So a block's rows
    depend on (seed, path index) alone: those of any range of paths equal
    the rows :func:`path_generator` draws for it.

    The variates are drawn span by span, uniforms a few blocks at a time and
    normals one block, into one draws buffer allocated once per generator;
    ``draws`` is a view of it, refilled for the next span, so read a block
    before asking for the next.  Beside that buffer a generator holds one
    span's Philox words while it draws uniforms.  This is the one place
    where path streams are read: normals from one keyed state per generator
    (:func:`stream_state`), whose key is set to (seed mod 2^64, i) before
    path i draws, and uniforms from :func:`uniform_words`.  With
    ``n_draws == 0`` the rows are empty and no stream is read.
    ``n_paths < 1`` is refused before the first block.
    """
    if n_paths < 1:
        raise ValueError(f"need n_paths >= 1, got {n_paths}")
    per_row = max(n_draws, 1)
    rows = max(1, min(CHUNK_PATHS, CHUNK_DRAWS // per_row, CHUNK_VALUES // n_cols))
    span = rows * max(1, SPAN_DRAWS // (rows * per_row)) if uniform else rows
    if n_draws and not uniform:
        # the state and generator belong to this generator, since a reader
        # may draw other paths between two blocks; only the key's path
        # index changes per path
        state = stream_state(seed, 0)
        philox = state["state"]
        key0 = philox["key"][0]
        rng = _unkeyed_generator()
        bitgen, normal = rng.bit_generator, rng.standard_normal
    # one draws buffer, refilled span by span: a fresh block per span would
    # be allocated while the previous one is still alive
    buf = np.empty((min(span, n_paths), n_draws), dtype=np.float64)
    for lo in range(0, n_paths, span):
        hi = min(lo + span, n_paths)
        draws = buf[: hi - lo]
        if n_draws and uniform:
            words = uniform_words(seed, np.arange(lo, hi, dtype=np.uint64), n_draws)
            words >>= np.uint64(11)
            np.multiply(words, 2.0**-53, out=draws)
        elif n_draws:
            for i, row in zip(range(lo, hi), draws):
                philox["key"] = (key0, i)
                bitgen.state = state
                normal(out=row)
        for a in range(lo, hi, rows):
            yield a, draws[a - lo : a - lo + rows]


def fill_paths(
    n_paths: int,
    n_draws: int,
    fill_block: Callable[[np.ndarray], np.ndarray],
    n_cols: int,
    seed: int,
    uniform: bool = False,
) -> np.ndarray:
    """The rows of paths [0, n_paths), each mapped from its variates by ``fill_block``.

    A loop over :func:`draw_blocks`: ``fill_block(draws)`` maps each
    ``(rows, n_draws)`` block to the ``(rows, n_cols)`` output of those
    paths, and row i of the returned ``(n_paths, n_cols)`` array is path i.
    ``fill_block`` must treat rows independently and must not keep
    ``draws``; then row i depends on (seed, i) alone, so the first k rows of
    an n-path call equal a k-path call.  Beside its output a call holds the
    generator's draws buffer and one ``fill_block`` call at a time.
    """
    for first, draws in draw_blocks(n_paths, n_draws, n_cols, seed, uniform):
        if not first:  # allocated once draw_blocks has accepted n_paths
            out = np.empty((n_paths, n_cols), dtype=np.float64)
        out[first : first + len(draws)] = fill_block(draws)
    return out


def mean_and_se(values: np.ndarray) -> tuple:
    """Sample mean and its standard error (pairwise numpy summation)."""
    n = values.size
    mean = float(np.sum(values) / n)
    if n < 2:
        return mean, float("inf")
    d = values - mean
    np.square(d, out=d)  # in place: one temporary of n floats, not two
    var = float(np.sum(d) / (n - 1))
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
