"""Monte-Carlo experiments on a time grid hold one chunk of paths and the per-path arrays they keep.

``single_jump``, ``suicide``, ``bm_check``, ``extended``, ``fatou`` and
``mass_redirect`` read their families only as per-time means, exactness
flags and a few columns.  So they build the paths in chunks of at most
``CHUNK_DRAWS`` values in one reused buffer (``PathFamily.chunks``, or
``PathFamily.columns`` through it) and keep only per-path arrays, 8 bytes a
path each.  Their traced peak then grows with the path count by those arrays
alone: the peak at 4N paths minus the peak at N is at most 3N times 8 bytes
per float a path holds at once, plus ``SLACK`` bytes of small objects.  That
holds phase by phase, and the peak is the largest phase.  N spans more than
one chunk of the first family, so both runs hold a full chunk buffer; a
whole path matrix would add 3N x 8 bytes per grid time, 33 to 290 of them.

The floats a path holds at once:

- ``single_jump`` 1 (the mid-window values), ``suicide`` 0, ``bm_check`` 1
  (W(t_max));
- ``extended`` 3: columns 0 and -1, and the deviations ``mean_and_se``
  squares in place;
- ``fatou`` 4: the two probe columns of one m, and the next m's two while
  they fill; or one probe's difference from its target and its absolute
  value beside the two columns;
- ``mass_redirect`` 64.  It keeps 4 columns (l at rho and at the end, W at
  rho and rho + 1); while W streams, W's buffer adds at most its 13 grid
  times, as N does not fill a chunk of W.  ``families.mass_redirect`` then
  evaluates the normal CDF at k - W_rho for k = 1, 2, 3: 3 floats of input
  and, per point, ``ndtr``'s 6 full-size arrays (x, z, erfc, y, 1 - y,
  out), at most 11 floats on the one branch the point falls in (the erf
  series with its small-x fix-up, or exp(-z^2) P/Q, whose ``tolist`` costs
  32 bytes a value) and its boolean masks, under 2 floats: 4 + 3 + 3 x 19.
  Its reweighting afterwards holds the 3 CDF rows and at most 6 more.

``mean_and_se`` squares its deviations in place, so beside the column it is
given it holds one column of deviations, not two.
"""

import tracemalloc

import numpy as np
import pytest

from follmer_lab.mc import experiments, gallery, paths
from follmer_lab.mc.streams import CHUNK_DRAWS, mean_and_se

N = 8000
SLACK = 16 * 1024

# experiment -> (families it streams, floats a path holds at once)
STREAMED = {
    "single_jump": (1, 1),
    "suicide": (1, 0),
    "bm_check": (1, 1),
    "extended": (1, 3),
    "fatou": (len(gallery.PARAMS["fatou"]["m_list"]), 4),
    "mass_redirect": (2, 64),  # the family l and the Brownian motion W
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
    n_families, kept = STREAMED[name]
    shapes = record_shapes(monkeypatch)
    experiments.EXPERIMENTS[name](1, 2, gallery.PARAMS[name])  # lazy imports and first-call caches
    peaks = {}
    for n_paths in (N, 4 * N):
        shapes.clear()
        peaks[n_paths] = traced_peak(name, n_paths)
        assert sum(rows for rows, _ in shapes) == n_families * n_paths
        assert all(rows * cols <= CHUNK_DRAWS for rows, cols in shapes)
        assert shapes[0][0] < N  # a full chunk at both path counts
    grown = peaks[4 * N] - peaks[N]
    assert grown <= 3 * N * 8 * kept + SLACK, f"{name}: peak grew by {grown} bytes"


def test_mean_and_se_squares_in_place():
    values = np.random.default_rng(3).standard_normal(32000)
    tracemalloc.start()
    try:
        mean_and_se(values)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.1 * values.nbytes, f"mean_and_se: peak {peak / values.nbytes:.2f}x its column"
