"""Stream v1 against numpy's own keyed Philox generator.

``draw_blocks`` builds the v1 streams without a generator per path: normals
come from one keyed state and generator per generator of blocks, re-keyed to
each path's index before its draws, and uniforms from Philox4x64-10 words
computed as array code; a read with no draws per path reads no stream.  Both
must equal ``np.random.Generator(np.random.Philox(key=[seed mod 2^64,
index]))`` bit for bit, on edge keys, across the 4-word counter blocks and
on both sides of the block and span sizes.  Each block of paths
[first, first + rows) must hold the rows ``path_generator`` draws for those
paths, whatever its offset against the block and span sizes, and each
builder's family streamed block by block must give the rows of its batch,
with per-time sums equal to one axis-0 sum of it; the columns it keeps
through ``PathFamily.columns`` equal those of the batch.
"""

import numpy as np
import pytest

from follmer_lab.mc import streams
from follmer_lab.mc.bridges import (
    SimpleNonincreasing,
    bridge_exponential,
    single_jump_approx,
    suicide_martingale,
)
from follmer_lab.mc.grids import GridSpec
from follmer_lab.mc.paths import simulate_bm
from follmer_lab.mc.streams import (
    CHUNK_PATHS,
    CHUNK_VALUES,
    draw_blocks,
    fill_paths,
    path_generator,
    stream_state,
    uniform_words,
)

C = CHUNK_PATHS
SEEDS = (0, 2**64 - 1, -1, 2**64 + 3)
INDICES = (0, 255, 256, 2**63, 2**64 - 1)


def numpy_stream(seed, index):
    key = np.array([seed & (2**64 - 1), index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@pytest.mark.parametrize("seed", SEEDS)
def test_uniform_words_match_numpy_philox(seed):
    for n_draws in range(1, 10):
        words = uniform_words(seed, np.array(INDICES, dtype=np.uint64), n_draws)
        assert words.shape == (len(INDICES), n_draws) and words.dtype == np.uint64
        for row, index in zip(words, INDICES):
            assert np.array_equal(row, numpy_stream(seed, index).bit_generator.random_raw(n_draws))


@pytest.mark.parametrize("seed", SEEDS)
def test_stream_state_is_numpys_keyed_state(seed):
    for index in INDICES:
        expected = numpy_stream(seed, index).bit_generator.state
        bitgen = np.random.Philox(0)
        bitgen.state = stream_state(seed, index)
        got = bitgen.state
        for part in ("counter", "key"):
            assert np.array_equal(got["state"][part], expected["state"][part])
        assert np.array_equal(got["buffer"], expected["buffer"])
        for field in ("buffer_pos", "has_uint32", "uinteger"):
            assert got[field] == expected[field]
        for n_draws in (1, 4, 5, 9):
            assert np.array_equal(path_generator(seed, index).standard_normal(n_draws),
                                  numpy_stream(seed, index).standard_normal(n_draws))
            assert np.array_equal(path_generator(seed, index).random(n_draws),
                                  numpy_stream(seed, index).random(n_draws))


@pytest.mark.parametrize("n_paths", [1, C - 1, C, C + 1])
@pytest.mark.parametrize("uniform", [False, True])
def test_fill_paths_rows_are_numpys_streams(n_paths, uniform):
    for seed in SEEDS:
        for n_draws in (1, 5, 9):
            out = fill_paths(n_paths, n_draws, lambda z: z, n_draws, seed, uniform=uniform)
            for i in range(n_paths):
                rng = numpy_stream(seed, i)
                expected = rng.random(n_draws) if uniform else rng.standard_normal(n_draws)
                assert np.array_equal(out[i], expected), (seed, n_draws, i)


@pytest.mark.parametrize("uniform", [False, True])
def test_zero_draw_rows_read_no_stream(monkeypatch, uniform):
    def no_stream(*args):
        raise AssertionError("a zero-draw call read a stream")

    monkeypatch.setattr(streams, "stream_state", no_stream)
    monkeypatch.setattr(streams, "uniform_words", no_stream)
    shapes = []

    def fill_block(z):
        shapes.append(z.shape)
        return np.arange(2.0 * z.shape[0]).reshape(-1, 2)

    out = fill_paths(150, 0, fill_block, 2, seed=3, uniform=uniform)
    assert shapes == [(150, 0)]
    assert np.array_equal(out, np.arange(300.0).reshape(150, 2))


@pytest.mark.parametrize("uniform", [False, True])
def test_fill_paths_across_a_span(uniform):
    # one variate per path: the first span holds SPAN_DRAWS paths in 16 blocks
    n_paths = streams.SPAN_DRAWS + 2
    sizes = []

    def fill_block(z):
        sizes.append(z.shape[0])
        return z

    out = fill_paths(n_paths, 1, fill_block, 1, seed=11, uniform=uniform)
    assert max(sizes) == C and sum(sizes) == n_paths
    for i in (0, C - 1, C, streams.SPAN_DRAWS - 1, streams.SPAN_DRAWS, n_paths - 1):
        rng = numpy_stream(11, i)
        assert out[i, 0] == (rng.random() if uniform else rng.standard_normal())


def test_fill_block_may_call_fill_paths():
    # each call draws on its own generator, so a nested call cannot shift
    # the streams of the call that invoked it; 20 variates a path make two
    # spans of C + 1 paths, so the nested calls run between the outer draws
    inner = []

    def fill_block(z):
        inner.append((fill_paths(3, 2, lambda w: w, 2, seed=5),
                      fill_paths(3, 2, lambda w: w, 2, seed=5, uniform=True)))
        return z

    out = fill_paths(C + 1, 20, fill_block, 20, seed=4)
    for i in range(C + 1):
        assert np.array_equal(out[i], numpy_stream(4, i).standard_normal(20))
    assert len(inner) == 2
    for normals, uniforms in inner:
        for j in range(3):
            assert np.array_equal(normals[j], numpy_stream(5, j).standard_normal(2))
            assert np.array_equal(uniforms[j], numpy_stream(5, j).random(2))


# blocks of one row, of a few rows and of one row less than CHUNK_PATHS, set
# by the values bound, over a path count that none of them divides; with 40
# variates a row, blocks of C - 1 rows are each a span of their own
@pytest.mark.parametrize("uniform", [False, True])
@pytest.mark.parametrize("n_draws", [0, 1, 5, 40])
@pytest.mark.parametrize("rows", [1, 7, C - 1])
def test_blocks_are_the_paths_streams(rows, n_draws, uniform):
    n_paths, seed = 2 * C + 9, 2**64 - 3
    blocks = []
    for first, draws in draw_blocks(n_paths, n_draws, CHUNK_VALUES // rows, seed, uniform=uniform):
        blocks.append((first, len(draws)))
        for i, row in enumerate(draws, start=first):
            rng = path_generator(seed, i)
            assert np.array_equal(row, rng.random(n_draws) if uniform else rng.standard_normal(n_draws))
    assert blocks == [(a, min(rows, n_paths - a)) for a in range(0, n_paths, rows)]


M = 5
GRID = GridSpec(t_max=3.0, base_step=1 / 8, refinements=((1.0 + 2.0**-M, 2.0**-M, 8), (2.0, 2.0**-M, 8)))
JUMPS = SimpleNonincreasing((1.0, 2.0 - 2.0**-M), (1.0, 0.5, 0.25))
FAMILIES = {
    "simulate_bm": lambda: simulate_bm(GRID),
    "bridge_exponential": lambda: bridge_exponential(M, 2.0, GRID),
    "single_jump_approx": lambda: single_jump_approx(0.25, M, 2.0, GRID),
    "suicide_martingale": lambda: suicide_martingale(JUMPS, M, GRID),
}


# blocks of 1 path, of a few paths and of one path less than CHUNK_PATHS,
# over a path count that none of them divides
@pytest.mark.parametrize("rows", [1, 7, C - 1])
@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_builder_ranges_are_rows_of_the_batch(name, rows, monkeypatch):
    family = FAMILIES[name]()
    assert np.array_equal(family.times, GRID.points())
    n_paths = 2 * C + 9
    whole = family.batch(n_paths, 13)  # in blocks of the default size
    monkeypatch.setattr(streams, "CHUNK_VALUES", rows * family.times.size)
    chunks = []
    for first, values, sums in family.chunks(n_paths, 13):
        assert first == sum(len(c) for c in chunks) and len(values) <= rows
        chunks.append(values.copy())
    assert np.concatenate(chunks).tobytes() == whole.tobytes()
    assert sums.tobytes() == whole.sum(axis=0).tobytes()
    idx = [0, family.times.size // 2, -1]
    assert family.columns(n_paths, 13, idx).tobytes() == whole[:, idx].T.tobytes()
