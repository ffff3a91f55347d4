"""Monte-Carlo experiments hold one chunk of paths, or at most one path matrix.

``single_jump``, ``suicide`` and ``bm_check`` read their paths only as
per-time means, exactness flags and a few per-path columns.  So they build
the paths in chunks of at most ``CHUNK_DRAWS`` values in one reused buffer
(``PathFamily.chunks``) and keep only those columns, 8 bytes a path each.  Their
traced peak then grows with the path count by the kept columns alone: the
peak at 4N paths minus the peak at N is at most 3N times 8 bytes per kept
column, plus ``SLACK`` bytes of small objects.  N spans more than one chunk,
so both runs hold a full chunk buffer; a whole path matrix would add
3N x 8 bytes per grid time, 59 or 33 of them.

``extended`` builds one ``(n_paths, n_times)`` float matrix (its
``PathBatch.values``) and reads columns from it.  Rescaling the matrix into
a new one, or checking columns through a fancy-index copy, costs a second
matrix at the peak.  So its traced peak must stay below ``BOUND`` times its
matrix: beside it may sit the per-time means and ``fill_paths``' working
arrays for one block of at most ``CHUNK_PATHS`` rows, which stay below 0.25
of the matrix at ``N_PATHS`` = 6,000; a second float matrix alone is 1.0.

``mean_and_se`` squares its deviations in place, so beside the column it is
given it holds one column of deviations, not two.
"""

import tracemalloc

import numpy as np
import pytest

from follmer_lab.mc import experiments, gallery, paths
from follmer_lab.mc.streams import CHUNK_DRAWS, CHUNK_PATHS, mean_and_se

N = 8000
SLACK = 16 * 1024
N_PATHS = 6000
BOUND = 1.35

# experiment -> per-path columns it keeps
STREAMED = {
    "single_jump": 1,  # the mid-window values
    "suicide": 0,
    "bm_check": 1,  # W(t_max)
}


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


def traced_peak(name, n_paths):
    run = experiments.EXPERIMENTS[name]
    tracemalloc.start()
    try:
        run(1, n_paths, gallery.PARAMS[name])
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("name", sorted(STREAMED))
def test_streamed_peak_grows_by_the_kept_columns_only(name, monkeypatch):
    kept = STREAMED[name]
    shapes = record_shapes(monkeypatch)
    experiments.EXPERIMENTS[name](1, 2, gallery.PARAMS[name])  # lazy imports and first-call caches
    peaks = {}
    for n_paths in (N, 4 * N):
        shapes.clear()
        peaks[n_paths] = traced_peak(name, n_paths)
        assert sum(rows for rows, _ in shapes) == n_paths
        assert all(rows * cols <= CHUNK_DRAWS for rows, cols in shapes)
        assert shapes[0][0] < N  # a full chunk at both path counts
    grown = peaks[4 * N] - peaks[N]
    assert grown <= 3 * N * 8 * kept + SLACK, f"{name}: peak grew by {grown} bytes"


def test_extended_peak_is_about_one_path_matrix(monkeypatch):
    assert N_PATHS >= 4 * CHUNK_PATHS  # the path count spans several blocks
    shapes = record_shapes(monkeypatch)
    experiments.EXPERIMENTS["extended"](1, 2, gallery.PARAMS["extended"])
    peak = traced_peak("extended", N_PATHS)
    assert len(shapes) == 2 and shapes[1][0] == N_PATHS
    matrix = shapes[1][0] * shapes[1][1] * 8
    assert peak < BOUND * matrix, f"extended: peak {peak / matrix:.2f}x its matrix"


def test_mean_and_se_squares_in_place():
    values = np.random.default_rng(3).standard_normal(32000)
    tracemalloc.start()
    try:
        mean_and_se(values)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.1 * values.nbytes, f"mean_and_se: peak {peak / values.nbytes:.2f}x its column"
