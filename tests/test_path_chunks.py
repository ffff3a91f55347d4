"""Chunked per-time sums against one axis-0 sum of the whole batch.

``PathFamily.chunks`` adds each block of paths of ``streams.draw_blocks``
to running per-time sums kept in row 0 of its buffer, one axis-0 sum of
that row and the block's rows.  For two or more columns numpy's axis-0 sum
adds rows in order, so the chunked sums, and the means read from them, must
equal one ``sum(axis=0)`` and ``mean(axis=0)`` of the whole array bit for
bit: on row counts that are not a multiple of the block, and with -0.0 in
the first row, which numpy's sum reads as +0.0.  One column is refused,
because numpy sums a single column pairwise.

The streamed experiments set their family up once and draw every block
from it, so neither the builder nor the grid's ``points`` runs once per
block.
"""

import numpy as np
import pytest

from follmer_lab.mc import bridges, experiments, gallery, grids, paths, streams
from follmer_lab.mc.paths import PathFamily
from follmer_lab.mc.streams import CHUNK_PATHS, CHUNK_VALUES


def spread(shape, seed):
    """Values over 16 decades, so that a change of summation order shows."""
    rng = np.random.default_rng(seed)
    return rng.standard_normal(shape) * 10.0 ** rng.uniform(-8, 8, shape)


def handing_out(values):
    """A family whose ``fill_block`` hands out the rows of ``values`` in order, drawing nothing."""
    handed = 0

    def fill_block(z):
        nonlocal handed
        rows = values[handed : handed + z.shape[0]]
        handed += z.shape[0]
        return rows

    return PathFamily(np.arange(values.shape[1], dtype=float), 0, fill_block)


def chunked_sums(values, chunk_values):
    """Stream ``values`` through ``PathFamily.chunks`` in blocks of at most
    ``chunk_values`` values; return the last sums and the ranges yielded."""
    n_paths, n_times = values.shape
    ranges = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(streams, "CHUNK_VALUES", chunk_values)
        for first, out, sums in handing_out(values).chunks(n_paths, seed=0):
            assert out.shape[1] == n_times and out.size <= max(chunk_values, n_times)
            assert np.array_equal(out, values[first : first + len(out)])
            ranges.append((first, len(out)))
    return sums, ranges


@pytest.mark.parametrize(
    "shape, chunk_values",
    [
        ((7, 3), 6),  # chunks of 2 rows: 2 + 2 + 2 + 1
        ((7, 3), 1),  # fewer values than a row: chunks of one row
        ((1, 5), 100),  # one path, one chunk shorter than the chunk size
        ((300, 59), 59 * 64),
        ((1001, 2), 2 * 97),
        ((20000, 59), CHUNK_VALUES),  # the default: CHUNK_PATHS rows a block
        ((100000, 2), 2 * 9999),  # CHUNK_PATHS rows a block, the paths bound
    ],
)
@pytest.mark.parametrize("negative_zero", [False, True])
def test_chunked_sums_equal_one_axis0_sum(shape, chunk_values, negative_zero):
    values = spread(shape, seed=shape[0] + chunk_values)
    if negative_zero:
        values[0] = -0.0
        values[1:, 0] = -0.0  # a column of -0.0 only
    sums, ranges = chunked_sums(values, chunk_values)
    rows = max(1, min(CHUNK_PATHS, chunk_values // shape[1]))
    assert ranges == [(a, min(rows, shape[0] - a)) for a in range(0, shape[0], rows)]
    whole = values.sum(axis=0)
    assert sums.tobytes() == whole.tobytes()
    assert (sums / shape[0]).tobytes() == values.mean(axis=0).tobytes()
    if negative_zero:
        assert not np.signbit(sums[0])


def test_chunks_refill_one_buffer():
    n_paths = 4 * CHUNK_PATHS + 7  # four full blocks and a part
    values = spread((n_paths, 59), seed=5)
    seen = [(out, sums) for _, out, sums in handing_out(values).chunks(n_paths, seed=0)]
    assert len(seen) == 5 and sum(len(out) for out, _ in seen) == n_paths
    assert all(out.base is seen[0][0].base and sums.base is out.base for out, sums in seen)
    assert seen[0][0].base.shape == (CHUNK_PATHS + 1, 59) and CHUNK_PATHS * 59 <= CHUNK_VALUES


def test_one_column_is_refused():
    with pytest.raises(ValueError, match="n_times >= 2"):
        next(handing_out(np.zeros((100000, 1))).chunks(100000, seed=0))


# experiment -> the builder it streams from
STREAMED = {
    "single_jump": "single_jump_approx",
    "suicide": "suicide_martingale",
    "bm_check": "simulate_bm",
}


@pytest.mark.parametrize("name", sorted(STREAMED))
def test_streamed_experiment_sets_up_once(name, monkeypatch):
    module = paths if name == "bm_check" else bridges
    build, points = getattr(module, STREAMED[name]), grids.GridSpec.points
    calls = {"build": 0, "points": 0}
    families = []

    def counting_build(*args, **kwargs):
        calls["build"] += 1
        families.append(build(*args, **kwargs))
        return families[-1]

    def counting_points(self):
        calls["points"] += 1
        return points(self)

    monkeypatch.setattr(module, STREAMED[name], counting_build)
    monkeypatch.setattr(grids.GridSpec, "points", counting_points)
    run = experiments.EXPERIMENTS[name]
    run(1, 2, gallery.PARAMS[name])
    n_paths = 2 * CHUNK_PATHS + 1  # at least three blocks
    calls.update(build=0, points=0)
    run(1, n_paths, gallery.PARAMS[name])
    assert calls["build"] == 1 and calls["points"] <= 2, calls
