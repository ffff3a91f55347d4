"""Chunked per-time sums against one axis-0 sum of the whole batch.

``PathChunks`` adds each chunk of paths to running per-time sums kept in
row 0 of its buffer, one axis-0 sum of that row and the chunk's rows.  For
two or more columns numpy's axis-0 sum adds rows in order, so the chunked
sums, and the means read from them, must equal one ``sum(axis=0)`` and
``mean(axis=0)`` of the whole array bit for bit: on row counts that are not
a multiple of the chunk, and with -0.0 in the first row, which numpy's sum
reads as +0.0.  One column is refused, because numpy sums a single column
pairwise.
"""

import numpy as np
import pytest

from follmer_lab.mc import paths
from follmer_lab.mc.paths import PathChunks


def spread(shape, seed):
    """Values over 16 decades, so that a change of summation order shows."""
    rng = np.random.default_rng(seed)
    return rng.standard_normal(shape) * 10.0 ** rng.uniform(-8, 8, shape)


def chunked_sums(values, chunk_values):
    """Fill a ``PathChunks`` from ``values`` and return its sums and the ranges it yielded."""
    n_paths, n_times = values.shape
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(paths, "CHUNK_DRAWS", chunk_values)
        chunks = PathChunks(n_paths, n_times)
    ranges = []
    for first, out in chunks:
        assert out.shape[1] == n_times and out.size <= max(chunk_values, n_times)
        out[:] = values[first : first + len(out)]
        ranges.append((first, len(out)))
        chunks.add_to_sums()
    return chunks.sums, ranges


@pytest.mark.parametrize(
    "shape, chunk_values",
    [
        ((7, 3), 6),  # chunks of 2 rows: 2 + 2 + 2 + 1
        ((7, 3), 1),  # fewer values than a row: chunks of one row
        ((1, 5), 100),  # one path, one chunk shorter than the chunk size
        ((300, 59), 59 * 64),
        ((1001, 2), 2 * 97),
        ((20000, 59), paths.CHUNK_DRAWS),  # the default: 4,443 rows a chunk
        ((100000, 2), 2 * 9999),
    ],
)
@pytest.mark.parametrize("negative_zero", [False, True])
def test_chunked_sums_equal_one_axis0_sum(shape, chunk_values, negative_zero):
    values = spread(shape, seed=shape[0] + chunk_values)
    if negative_zero:
        values[0] = -0.0
        values[1:, 0] = -0.0  # a column of -0.0 only
    sums, ranges = chunked_sums(values, chunk_values)
    rows = max(1, chunk_values // shape[1])
    assert ranges == [(a, min(rows, shape[0] - a)) for a in range(0, shape[0], rows)]
    whole = values.sum(axis=0)
    assert sums.tobytes() == whole.tobytes()
    assert (sums / shape[0]).tobytes() == values.mean(axis=0).tobytes()
    if negative_zero:
        assert not np.signbit(sums[0])


def test_chunks_refill_one_buffer():
    chunks = PathChunks(20000, 59)
    seen = [out for _, out in chunks]
    assert len(seen) == 5 and sum(len(out) for out in seen) == 20000
    assert all(out.base is seen[0].base for out in seen)
    assert seen[0].base.shape == (chunks.rows + 1, 59) and chunks.rows * 59 <= paths.CHUNK_DRAWS


def test_one_column_is_refused():
    with pytest.raises(ValueError, match="n_times >= 2"):
        PathChunks(100000, 1)
