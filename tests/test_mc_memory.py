"""Each Monte-Carlo experiment holds at most one path matrix.

An experiment builds one ``(n_paths, n_times)`` float matrix (its
``PathBatch.values``) and then reads columns, per-time means and exactness
flags from it.  Rescaling the matrix into a new one, or checking columns
through a fancy-index copy, costs a second or third matrix at the peak.  So
the traced peak of a whole experiment run must stay below ``BOUND`` times its
matrix.  What may sit beside the matrix: one bool mask of it (1/8 of its
bytes, for an exactness check), the per-time means, and ``fill_paths``'
working arrays for one block of at most ``CHUNK_PATHS`` rows, whose size does
not grow with the path count.  At ``N_PATHS`` = 6,000 these stay below 0.25
of the matrix; a second float matrix alone is 1.0.
"""

import tracemalloc

import pytest

from follmer_lab.mc import bridges, experiments, families, gallery, paths
from follmer_lab.mc.streams import CHUNK_PATHS

N_PATHS = 6000
BOUND = 1.35

# experiment -> (module, name) of the function that builds its path matrix
BUILDERS = {
    "single_jump": (bridges, "bridge_exponential"),
    "suicide": (bridges, "suicide_martingale"),
    "extended": (families, "suicide_martingale"),
    "bm_check": (paths, "simulate_bm"),  # a control: it never copied its matrix
}


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_peak_is_about_one_path_matrix(name, monkeypatch):
    assert N_PATHS >= 4 * CHUNK_PATHS  # the path count spans several blocks
    module, attr = BUILDERS[name]
    build = getattr(module, attr)
    shapes = []

    def recording(*args, **kwargs):
        batch = build(*args, **kwargs)
        shapes.append(batch.values.shape)
        return batch

    monkeypatch.setattr(module, attr, recording)
    run = experiments.EXPERIMENTS[name]
    params = gallery.PARAMS[name]
    run(1, 2, params)  # lazy imports and first-call caches stay out of the peak
    tracemalloc.start()
    try:
        run(1, N_PATHS, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(shapes) == 2 and shapes[1][0] == N_PATHS
    matrix = shapes[1][0] * shapes[1][1] * 8
    assert peak < BOUND * matrix, f"{name}: peak {peak / matrix:.2f}x its matrix"
