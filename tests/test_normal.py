"""``mc.normal.ndtr`` against ``scipy.special.ndtr``, bit for bit.

scipy is the oracle: the port must give its bits at every float64, so the
Monte-Carlo digests do not depend on which of the two computed them.  The
fixed-seed sample covers the three call sites' arguments, magnitudes up to
1e300, signed zeros, infinities, quiet and signalling NaNs, subnormals, and
200 ulps either side of each point where Cephes changes branch.
"""

import math
import warnings

import numpy as np
import pytest
from scipy.special import ndtr as scipy_ndtr

from follmer_lab.mc.normal import MAXLOG, Z_UNDER, ndtr

ULPS = 200
# where Cephes changes branch: |a| sqrt(1/2) crosses sqrt(1/2), 1, 8 and sqrt(MAXLOG)
BRANCH_POINTS = (1.0, math.sqrt(2.0), 8.0 * math.sqrt(2.0), math.sqrt(2.0 * MAXLOG))


def _around(c: float, ulps: int) -> np.ndarray:
    """c and the ``ulps`` floats on either side of it."""
    below, above = [c], [c]
    for _ in range(ulps):
        below.append(math.nextafter(below[-1], -math.inf))
        above.append(math.nextafter(above[-1], math.inf))
    return np.array(below + above[1:])


def _sample() -> np.ndarray:
    rng = np.random.default_rng(20240)
    n = 167_000
    bits = rng.integers(0, 2**64, n, dtype=np.uint64).view(np.float64)
    signs = rng.choice((-1.0, 1.0), n)
    parts = [
        # mass_redirect: l + 1 - w and l - w, for a driver value w near the window
        rng.normal(0.0, 4.0, n),
        # split_limit: g_n / resid_std, up to about 1e162 at n = 372
        rng.normal(0.0, 1.0, n) * np.exp(rng.uniform(0.0, 372.0, n)),
        # reciprocal_bessel: 1 / sqrt(t) for t > 0
        1.0 / np.sqrt(np.exp(rng.uniform(-50.0, 50.0, n))),
        # every magnitude from 1e-300 to 1e300, both signs
        signs * 10.0 ** rng.uniform(-300.0, 300.0, n),
        # the whole range of the erfc tail, densely
        rng.uniform(-40.0, 40.0, n),
        # random bit patterns: subnormals, huge values, signalling and quiet NaNs
        bits,
        np.array([0x7FF0000000000001, 0xFFF0000000000001, 0x7FF8000000000001], dtype=np.uint64).view(np.float64),
        np.array([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 2.2250738585072014e-308,
                  -2.2250738585072014e-308, 1e300, -1e300, 1.7976931348623157e308, -1.7976931348623157e308]),
    ]
    parts += [_around(s * c, ULPS) for c in BRANCH_POINTS for s in (1.0, -1.0)]
    return np.concatenate(parts)


def test_ndtr_matches_scipy_bit_for_bit():
    a = _sample()
    assert a.size > 10**6
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = ndtr(a)
    want = scipy_ndtr(a)
    same = (got.view(np.uint64) == want.view(np.uint64)) | (np.isnan(got) & np.isnan(want))
    assert same.all(), list(zip(a[~same][:5], got[~same][:5], want[~same][:5]))


@pytest.mark.parametrize("a", [0.0, -0.3, 1.2, -3.0, 15.0, -30.0, 1e300, math.inf, -math.inf, math.nan])
def test_scalars_and_shapes_as_scipy(a):
    got, want = ndtr(a), scipy_ndtr(a)
    assert type(got) is type(want) is np.float64
    assert np.array_equal(got, want, equal_nan=True)
    grid = np.array([[a, -a, 0.5 * a], [2.0 * a, a + 1.0, 1.0]])
    assert np.array_equal(ndtr(grid), scipy_ndtr(grid), equal_nan=True)


def test_z_under_is_the_last_z_whose_square_is_within_maxlog():
    assert Z_UNDER * Z_UNDER <= MAXLOG < math.nextafter(Z_UNDER, math.inf) ** 2
