"""Monte-Carlo reads hold about one draws block at a time, beside the per-path arrays they keep.

``fill_paths`` draws paths span by span into one draws buffer per call,
which holds at most ``CHUNK_DRAWS`` variates, and hands it to ``fill_block``
in blocks of at most ``CHUNK_PATHS`` rows.  So a call holds one draws
buffer, one ``fill_block`` call at a time and its ``out``, however many
spans it draws; a fresh buffer per span would be allocated while the last
one is still alive, two blocks at once.

``single_jump``, ``suicide``, ``bm_check``, ``extended``, ``fatou`` and
``mass_redirect`` read their families only as per-time means, exactness
flags and a few columns.  ``single_jump`` and ``suicide`` read the per-time
sums, through ``PathFamily.chunks``: one buffer of at most
``paths.CHUNK_VALUES`` path values, refilled chunk by chunk.  The other four
read their columns through ``PathFamily.columns``, which calls
``fill_paths`` with a ``fill_block`` that keeps only those columns of each
block, so they hold no chunk.  Each runner keeps per-path arrays only, 8
bytes a path each.  A phase is the read of one family and what the runner
does with its columns; the traced peak is the largest phase.  So at N
paths the peak is at most the largest family's

- draws buffer, ``min(span, N)`` rows of its ``n_draws`` variates, with
  ``span`` as ``fill_paths`` sizes it;
- one ``fill_block`` call on a full block of ``rows`` paths: its output
  and the builder's own block temporaries, measured as that call's traced
  peak on its own;
- for the two ``chunks`` readers, the chunk buffer, ``CHUNK_VALUES //
  n_times`` rows and the sums row;

plus 8N bytes per float a path holds at once and ``SLACK`` bytes of small
objects.  At N = 8,000 a chunk of ``CHUNK_DRAWS`` values, a chunk under
``columns`` or a second draws block each breaks this bound.  The peak at 4N
paths minus the peak at N is at most 3N times 8 bytes per float a path
holds, plus ``SLACK``; a whole path matrix would add 3N x 8 bytes per grid
time, 13 to 290 of them.

The floats a path holds at once:

- ``single_jump`` 1 (the mid-window values), ``suicide`` 0, ``bm_check`` 1
  (W(t_max));
- ``extended`` 3: columns 0 and -1, and the deviations ``mean_and_se``
  squares in place;
- ``fatou`` 4: the two probe columns of one m, and the next m's two while
  they fill; or one probe's difference from its target and its absolute
  value beside the two columns;
- ``mass_redirect`` 26.  It reads 4 columns: l at rho and at the end, then
  W at rho and rho + 1.  ``families.mass_redirect`` then evaluates the
  normal CDF at k - W_rho one level k = 1, 2, 3 at a time.  Beside the 4
  columns that holds the CDF rows already done (at most 2) and the level's
  argument (1).  Per point, ``ndtr`` holds 6 full-size arrays (x, z, erfc,
  y, 1 - y, out) and at most 11 floats on the one branch the point falls
  in: the erf series with its small-x fix-up, or exp(-z^2) P/Q, whose
  ``tolist`` costs 32 bytes a value.  Its boolean masks add under 2 floats.
  That is 4 + 2 + 1 + 19.  The reweighting afterwards holds the 3 CDF rows
  and at most 6 more.

``mean_and_se`` squares its deviations in place, so beside the column it is
given it holds one column of deviations, not two.
"""

import tracemalloc

import numpy as np
import pytest

from follmer_lab.mc import bridges, experiments, families, gallery, paths
from follmer_lab.mc.streams import CHUNK_DRAWS, CHUNK_PATHS, SPAN_DRAWS, fill_paths, mean_and_se

N = 8000
SLACK = 16 * 1024

# experiment -> (families it streams, floats a path holds at once)
STREAMED = {
    "single_jump": (1, 1),
    "suicide": (1, 0),
    "bm_check": (1, 1),
    "extended": (1, 3),
    "fatou": (len(gallery.PARAMS["fatou"]["m_list"]), 4),
    "mass_redirect": (2, 26),  # the family l and the Brownian motion W
}
CHUNKED = {"single_jump", "suicide"}  # the readers of per-time sums


def record_shapes(monkeypatch):
    """Make ``paths.fill_paths`` record the shape of each array of paths it fills."""
    fill = paths.fill_paths
    shapes = []

    def recording(*args, **kwargs):
        out = fill(*args, **kwargs)
        shapes.append(out.shape)
        return out

    monkeypatch.setattr(paths, "fill_paths", recording)
    return shapes


def record_families(monkeypatch):
    """Make ``PathFamily.chunks`` and ``columns`` record each family they read, once."""
    families = {}
    for method in ("chunks", "columns"):
        read = getattr(paths.PathFamily, method)

        def recording(self, *args, _read=read, **kwargs):
            families[id(self)] = self
            return _read(self, *args, **kwargs)

        monkeypatch.setattr(paths.PathFamily, method, recording)
    return families


def traced_peak(run, *args):
    tracemalloc.start()
    try:
        run(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def block_sizes(n_draws):
    """Rows of a block and of a span of draws, as ``fill_paths`` sizes them."""
    per_row = max(n_draws, 1)
    rows = max(1, min(CHUNK_PATHS, CHUNK_DRAWS // per_row))
    return rows, rows * max(1, SPAN_DRAWS // (rows * per_row))


def phase_bytes(family, n_paths, chunked):
    """The bytes one read of ``family`` holds beside the runner's per-path arrays."""
    rows, span = block_sizes(family.n_draws)
    draws = np.random.default_rng(0).standard_normal((rows, family.n_draws))
    family.fill_block(draws)  # first-call caches
    block = traced_peak(family.fill_block, draws)
    chunk = (paths.CHUNK_VALUES // family.times.size + 1) * family.times.size if chunked else 0
    return 8 * min(span, n_paths) * family.n_draws + block + 8 * chunk


@pytest.mark.parametrize("name", sorted(STREAMED))
def test_streamed_peak_is_one_block_and_the_kept_columns(name, monkeypatch):
    n_families, kept = STREAMED[name]
    families = record_families(monkeypatch)
    run = experiments.EXPERIMENTS[name]
    run(1, 2, gallery.PARAMS[name])  # lazy imports and first-call caches
    families.clear()
    peak = traced_peak(run, 1, N, gallery.PARAMS[name])
    assert len(families) == n_families
    largest = max(phase_bytes(f, N, name in CHUNKED) for f in families.values())
    bound = largest + 8 * N * kept + SLACK
    assert peak <= bound, f"{name}: peak {peak} bytes, bound {bound}"


@pytest.mark.parametrize("name", sorted(STREAMED))
def test_streamed_peak_grows_by_the_kept_columns_only(name, monkeypatch):
    n_families, kept = STREAMED[name]
    shapes = record_shapes(monkeypatch)
    run = experiments.EXPERIMENTS[name]
    run(1, 2, gallery.PARAMS[name])  # lazy imports and first-call caches
    peaks = {}
    for n_paths in (N, 4 * N):
        shapes.clear()
        peaks[n_paths] = traced_peak(run, 1, n_paths, gallery.PARAMS[name])
        assert sum(rows for rows, _ in shapes) == n_families * n_paths
        assert all(rows * cols <= CHUNK_DRAWS for rows, cols in shapes)
    grown = peaks[4 * N] - peaks[N]
    assert grown <= 3 * N * 8 * kept + SLACK, f"{name}: peak grew by {grown} bytes"


@pytest.mark.parametrize("name", ["suicide", "extended"])
def test_suicide_block_holds_window_sized_temporaries(name, monkeypatch):
    # Beside its output, one suicide_martingale fill_block call holds arrays
    # the size of one burn-in window's columns, at most five at once: the
    # copy of out's window columns, the bridge values, and the clock walk,
    # its shift and its exp; one more covers numpy's own temporaries.  A
    # grid-sized temporary per drop, such as the bridge on every grid time,
    # breaks the bound: it reads 11 and 29 window-sized arrays on the two
    # families below, against 5.1 and 6.0 now.
    built = []

    def recording(g, m, grid, _build=bridges.suicide_martingale):
        built.append((g, m, _build(g, m, grid)))
        return built[-1][2]

    monkeypatch.setattr(bridges, "suicide_martingale", recording)
    monkeypatch.setattr(families, "suicide_martingale", recording)
    experiments.EXPERIMENTS[name](1, 2, gallery.PARAMS[name])
    ((g, m, family),) = built
    rows, _ = block_sizes(family.n_draws)
    draws = np.random.default_rng(0).standard_normal((rows, family.n_draws))
    out = family.fill_block(draws)  # first-call caches
    length = 2.0**-m
    window = max(
        bridges.BridgeWindow.on(family.times, rho + length, length).inside.size for rho, _ in g.drops()
    )
    peak = traced_peak(family.fill_block, draws)
    bound = out.nbytes + 6 * 8 * rows * window + SLACK
    assert peak <= bound, f"{name}: peak {peak} bytes, bound {bound}"


def test_single_jump_block_holds_its_output_and_one_bridge_call(monkeypatch):
    # Beside its normals, one single_jump_approx fill_block call holds its
    # output and one bridge_increment_values call: an array of the normals'
    # shape and numpy's ufunc buffer.  The bridge values go straight into
    # the output; a window-sized copy of them on the way, and a mask of the
    # grid, break the bound (276 KiB against 224 KiB now, bound 250 KiB).
    built = []

    def recording(*args, _build=bridges.single_jump_approx):
        built.append(_build(*args))
        return built[-1]

    monkeypatch.setattr(bridges, "single_jump_approx", recording)
    experiments.EXPERIMENTS["single_jump"](1, 2, gallery.PARAMS["single_jump"])
    (family,) = built
    rows, _ = block_sizes(family.n_draws)
    draws = np.random.default_rng(0).standard_normal((rows, family.n_draws))
    out = family.fill_block(draws)  # first-call caches
    peak = traced_peak(family.fill_block, draws)
    bound = out.nbytes + draws.nbytes + 8 * np.getbufsize() + SLACK
    assert peak <= bound, f"peak {peak} bytes, bound {bound}"


def test_bridge_increment_values_holds_one_array_beside_its_input():
    # Beside the normals, one call holds its output and numpy's ufunc buffer
    # (getbufsize values), which the in-place broadcast subtraction fills.
    # A fresh array per step breaks the bound: three outputs at once.
    z = np.random.default_rng(0).standard_normal((256, 120))
    sigmas = np.cumsum(np.full(120, 0.05))
    out = bridges.bridge_increment_values(z, sigmas)  # first-call caches
    peak = traced_peak(bridges.bridge_increment_values, z, sigmas)
    bound = out.nbytes + 8 * np.getbufsize() + SLACK
    assert peak <= bound, f"peak {peak} bytes, bound {bound}"


def test_fill_paths_holds_one_draws_block():
    # rows of CHUNK_DRAWS // CHUNK_PATHS normals: each span is one full block
    n_draws = CHUNK_DRAWS // CHUNK_PATHS
    rows, span = block_sizes(n_draws)
    assert rows == span == CHUNK_PATHS
    n_paths = 3 * span + 5  # three full spans and a part
    out = np.empty((n_paths, 1))
    peak = traced_peak(lambda: fill_paths(n_paths, n_draws, lambda z: z[:, :1], 1, seed=7, out=out))
    assert peak < 1.5 * 8 * CHUNK_DRAWS + out.nbytes, f"fill_paths: peak {peak} bytes"


def test_mean_and_se_squares_in_place():
    values = np.random.default_rng(3).standard_normal(32000)
    peak = traced_peak(mean_and_se, values)
    assert peak < 1.1 * values.nbytes, f"mean_and_se: peak {peak / values.nbytes:.2f}x its column"
