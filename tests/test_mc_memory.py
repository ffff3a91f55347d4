"""Monte-Carlo reads hold about one block at a time, beside the per-path arrays they keep.

Every read of paths loops over ``streams.draw_blocks``, the one block
policy.  A block has at most ``CHUNK_PATHS`` rows, ``CHUNK_DRAWS`` variates
and, mapped to its reader's grid, ``CHUNK_VALUES`` values (but at least one
row), whatever the path count and the grid.  The normals are drawn into one
draws buffer per read, one block of rows, refilled block by block; a fresh
buffer per block would be allocated while the last one is still alive, two
blocks at once.

``single_jump``, ``suicide``, ``bm_check``, ``extended``, ``fatou`` and
``mass_redirect`` read their families only as per-time means, exactness
flags and a few columns.  ``single_jump`` and ``suicide`` read the per-time
sums, through ``PathFamily.chunks``: one buffer of one block's values and
the sums row, refilled block by block.  The other four read their columns
through ``PathFamily.columns``, which keeps only those columns of each
block.  Each runner keeps per-path arrays only, 8 bytes a path each.  A
phase is the read of one family and what the runner does with its
columns; the traced peak is the largest phase.  So at N paths the peak is
at most the largest family's

- draws buffer, ``min(rows, N)`` rows of its ``n_draws`` variates, with
  ``rows`` as ``draw_blocks`` sizes a block;
- one ``fill_block`` call on a full block: its output and the builder's
  own block temporaries, measured as that call's traced peak on its own;
- for the two ``chunks`` readers, the block buffer, ``min(rows, N)`` rows
  and the sums row;

plus 8N bytes per float a path holds at once and ``SLACK`` bytes of small
objects.  The bound holds at the defaults and on wide grids (``WIDE``),
where the values bound sizes the blocks: a block sized by its paths or
draws alone, or a chunk of more rows than a block, breaks it.  The peak at
4N paths minus the peak at N is at most 3N times 8 bytes per float a path
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
from follmer_lab.mc.streams import CHUNK_DRAWS, CHUNK_PATHS, CHUNK_VALUES, fill_paths, mean_and_se

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
# experiment -> params that widen its grid until the values bound sizes its
# blocks, and the paths drawn there.  mass_redirect's grid ends at 2.5 and
# its rows hold about 9 normals per grid time, so the draws bound sizes its
# blocks at any parameters, and its default case covers it.
WIDE = {
    "single_jump": ({"t_max": 100.0}, 1000),
    "suicide": ({"t_max": 100.0}, 1000),
    "bm_check": ({"t_max": 100.0}, 1000),
    "extended": ({"t_max": 100.0}, 1000),
    "fatou": ({"t_max": 50.0}, 300),
}


def record_blocks(monkeypatch):
    """Make ``paths.draw_blocks`` count the rows it yields and the most draws and values of a block.

    Counters, not a list of blocks, so that the recording holds as much at 4N
    paths as at N.
    """
    draw = paths.draw_blocks
    seen = {"rows": 0, "draws": 0, "values": 0}

    def recording(n_paths, n_draws, n_cols, *args, **kwargs):
        for first, draws in draw(n_paths, n_draws, n_cols, *args, **kwargs):
            seen["rows"] += len(draws)
            seen["draws"] = max(seen["draws"], draws.size)
            seen["values"] = max(seen["values"], len(draws) * n_cols)
            yield first, draws

    monkeypatch.setattr(paths, "draw_blocks", recording)
    return seen


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


def block_rows(family):
    """Rows of a full block of ``family``, as ``draw_blocks`` sizes them."""
    return max(1, min(CHUNK_PATHS, CHUNK_DRAWS // max(family.n_draws, 1), CHUNK_VALUES // family.times.size))


def phase_bytes(family, n_paths, chunked):
    """The bytes one read of ``family`` holds beside the runner's per-path arrays."""
    rows = block_rows(family)
    draws = np.random.default_rng(0).standard_normal((rows, family.n_draws))
    family.fill_block(draws)  # first-call caches
    block = traced_peak(family.fill_block, draws)
    held = min(rows, n_paths)
    chunk = (held + 1) * family.times.size if chunked else 0
    return 8 * held * family.n_draws + block + 8 * chunk


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


@pytest.mark.parametrize("name", sorted(WIDE))
def test_wide_grid_peak_is_one_block_beyond_the_set_up(name, monkeypatch):
    # On a wide grid the set-up's arrays are no longer small objects, so the
    # bound adds the traced peak of a 2-path run, set-up and all.  A block of
    # CHUNK_PATHS rows of values breaks it: with blocks sized by their paths
    # and draws only, the columns readers extended, bm_check and fatou read
    # 6.9, 6.0 and 13.0 MiB against bounds of 0.9, 1.8 and 1.7 MiB.
    params, n_paths = WIDE[name]
    params = {**gallery.PARAMS[name], **params}
    n_families, kept = STREAMED[name]
    families = record_families(monkeypatch)
    run = experiments.EXPERIMENTS[name]
    run(1, 2, params)  # lazy imports and first-call caches
    set_up = traced_peak(run, 1, 2, params)
    families.clear()
    peak = traced_peak(run, 1, n_paths, params)
    assert len(families) == n_families
    rows = {block_rows(f) for f in families.values()}
    assert max(rows) < CHUNK_PATHS, f"{name}: the values bound sizes no block ({rows} rows)"
    largest = max(phase_bytes(f, n_paths, name in CHUNKED) for f in families.values())
    bound = set_up + largest + 8 * n_paths * kept + SLACK
    assert peak <= bound, f"{name}: peak {peak} bytes, bound {bound}"


@pytest.mark.parametrize("name", sorted(STREAMED))
def test_streamed_peak_grows_by_the_kept_columns_only(name, monkeypatch):
    n_families, kept = STREAMED[name]
    seen = record_blocks(monkeypatch)
    run = experiments.EXPERIMENTS[name]
    run(1, 2, gallery.PARAMS[name])  # lazy imports and first-call caches
    peaks = {}
    for n_paths in (N, 4 * N):
        seen.update(rows=0, draws=0, values=0)
        peaks[n_paths] = traced_peak(run, 1, n_paths, gallery.PARAMS[name])
        assert seen["rows"] == n_families * n_paths
        assert seen["draws"] <= CHUNK_DRAWS and seen["values"] <= CHUNK_VALUES, seen
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
    rows = block_rows(family)
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
    rows = block_rows(family)
    draws = np.random.default_rng(0).standard_normal((rows, family.n_draws))
    out = family.fill_block(draws)  # first-call caches
    peak = traced_peak(family.fill_block, draws)
    bound = out.nbytes + draws.nbytes + 8 * np.getbufsize() + SLACK
    assert peak <= bound, f"peak {peak} bytes, bound {bound}"


@pytest.mark.parametrize(
    "shape, cols", [((256, 120), slice(None)), ((99, 2628), slice(1000, 1132))], ids=["block", "column-slice"]
)
def test_bridge_increment_values_holds_one_array_beside_its_input(shape, cols):
    # Beside the normals, one call holds its output and numpy's ufunc buffer
    # (getbufsize values), which the in-place broadcast subtraction fills.
    # A fresh array per step breaks the bound: three outputs at once.  So
    # does scaling a column slice of a wider block into a new array, as the
    # burn-in windows pass their normals, which numpy buffers in full: 233.4
    # KiB against 169.7 KiB now for a 99 x 132 slice, bound 182.1 KiB.
    z = np.random.default_rng(0).standard_normal(shape)[:, cols]
    sigmas = np.cumsum(np.full(z.shape[1], 0.05))
    out = bridges.bridge_increment_values(z, sigmas)  # first-call caches
    peak = traced_peak(bridges.bridge_increment_values, z, sigmas)
    bound = out.nbytes + 8 * np.getbufsize() + SLACK
    assert peak <= bound, f"peak {peak} bytes, bound {bound}"


def test_fill_paths_holds_one_draws_block():
    # rows of CHUNK_DRAWS // CHUNK_PATHS normals: each block is a full draws block
    n_draws = CHUNK_DRAWS // CHUNK_PATHS
    n_paths = 3 * CHUNK_PATHS + 5  # three full blocks and a part
    peak = traced_peak(fill_paths, n_paths, n_draws, lambda z: z[:, :1], 1, 7)
    assert peak < 1.5 * 8 * CHUNK_DRAWS + 8 * n_paths, f"fill_paths: peak {peak} bytes"


def test_mean_and_se_squares_in_place():
    values = np.random.default_rng(3).standard_normal(32000)
    peak = traced_peak(mean_and_se, values)
    assert peak < 1.1 * values.nbytes, f"mean_and_se: peak {peak / values.nbytes:.2f}x its column"


def test_localized_block_holds_one_ladder_block_at_a_time(monkeypatch):
    # Beside its output, one localized_suicide_family fill_block call (the
    # mass_redirect family) holds one window's ladder block at a time: one
    # bridge_increment_values call, measured on its own on the largest
    # window's normals, and less than half a ladder block of per-window
    # arrays (the crossing mask, one byte a ladder value, and the
    # temporaries of the window's inside columns).  The previous window's
    # block kept alive while the next one is built breaks the bound: 568 KiB
    # against 466 KiB now, bound 524 KiB.
    calls = []

    def recording(z, sigmas, _bridge=bridges.bridge_increment_values):
        calls.append((z, sigmas))
        return _bridge(z, sigmas)

    params = gallery.PARAMS["mass_redirect"]
    family, _ = experiments.exp_decay_family(params["k"], params["m"], params["level"])
    rows = block_rows(family)
    draws = np.random.default_rng(0).standard_normal((rows, family.n_draws))
    monkeypatch.setattr(families, "bridge_increment_values", recording)
    out = family.fill_block(draws)  # first-call caches
    monkeypatch.undo()
    z, sigmas = max(calls, key=lambda call: call[1].size)
    bridge = traced_peak(bridges.bridge_increment_values, z, sigmas)
    peak = traced_peak(family.fill_block, draws)
    bound = out.nbytes + bridge + 8 * rows * sigmas.size // 2 + SLACK
    assert peak <= bound, f"peak {peak} bytes, bound {bound}"
