"""The standard normal CDF, bit for bit as ``scipy.special.ndtr`` computes it.

This is a port of ``ndtr``, ``erf`` and ``erfc`` from Cephes (S. L. Moshier,
*Methods and Programs for Mathematical Functions*, 1989), the routines that
scipy.special ships under the BSD-3-Clause license and runs for ``ndtr``;
the coefficients are Cephes's.

It is a port, not a call, so that the ``mass_redirect``, ``split_limit``
and ``reciprocal_bessel`` digests depend on this code alone and not on
whichever scipy is installed, or whether one is.  A libm formula such as
``0.5 * erfc(-x / sqrt(2))`` differs from Cephes in the last bit on about
half of all points, which would change those digests.

The compiled Cephes code takes ``exp`` from the C library, as ``math.exp``
does; numpy's ``exp`` differs from it in the last bit on some inputs.  Every
other step is one numpy add, multiply or divide, so each rounds once and
none is fused, as in the C code.
"""

from __future__ import annotations

import math

import numpy as np

SQRT1_2 = 0.70710678118654752440
MAXLOG = 7.09782712893383996843E2
# the largest z with z*z <= MAXLOG in floating point: past it erfc(z) underflows to 0
Z_UNDER = math.sqrt(MAXLOG)

# erfc(z) = exp(-z^2) P(z) / Q(z) for 1 <= z < 8
P = (2.46196981473530512524E-10, 5.64189564831068821977E-1, 7.46321056442269912687E0, 4.86371970985681366614E1,
     1.96520832956077098242E2, 5.26445194995477358631E2, 9.34528527171957607540E2, 1.02755188689515710272E3,
     5.57535335369399327526E2)
Q = (1.32281951154744992508E1, 8.67072140885989742329E1, 3.54937778887819891062E2, 9.75708501743205489753E2,
     1.82390916687909736289E3, 2.24633760818710981792E3, 1.65666309194161350182E3, 5.57535340817727675546E2)
# erfc(z) = exp(-z^2) R(z) / S(z) for z >= 8
R = (5.64189583547755073984E-1, 1.27536670759978104416E0, 5.01905042251180477414E0, 6.16021097993053585195E0,
     7.40974269950448939160E0, 2.97886665372100240670E0)
S = (2.26052863220117276590E0, 9.39603524938001434673E0, 1.20489539808096656605E1, 1.70814450747565897222E1,
     9.60896809063285878198E0, 3.36907645100081516050E0)
# erf(w) = w T(w^2) / U(w^2) for |w| < 1
T = (9.60497373987051638749E0, 9.00260197203842689217E1, 2.23200534594684319226E3, 7.00332514112805075473E3,
     5.55923013010394962768E4)
U = (3.35617141647503099647E1, 5.21357949780152679795E2, 4.59432382970980127987E3, 2.26290000613890934246E4,
     4.92673942608635921086E4)


# Each rational form as one array: numerator over denominator, highest power
# first.  The denominators' leading 1, implicit in Cephes ``p1evl``, is written
# out, and a shorter row is padded with leading zeros; neither changes a bit,
# since 1*x, 0*x + 0 and 0*x + c are exact at finite x.
ERF_TU = np.array([(0.0,) + T, (1.0,) + U])
ERFC_PQ = np.array([P, (1.0,) + Q])
ERFC_RS = np.array([(0.0,) + R, (1.0,) + S])


def _horner(x: np.ndarray, form: np.ndarray) -> np.ndarray:
    """Both rows of ``form`` at ``x`` by Horner's rule, as Cephes ``polevl``: ans = ans*x + c."""
    ans = form[:, :1] * x
    ans += form[:, 1:2]
    for c in form.T[2:, :, None]:
        ans *= x
        ans += c
    return ans


def ndtr(a):
    """P[N(0, 1) <= a], elementwise over a float array or scalar, as Cephes ``ndtr``.

    NaN gives NaN, +inf gives 1 and -inf gives 0, and no floating-point
    warning is raised at any ``a``.
    """
    with np.errstate(invalid="ignore"):  # only a signalling NaN can raise it: it turns quiet
        x = np.asarray(a, dtype=float) * SQRT1_2
    z = np.abs(x)
    # erfc(z) is 0 where -z*z < -MAXLOG and NaN at NaN; every other z is overwritten below
    erfc = np.where(z > Z_UNDER, 0.0, z)
    low = z < 1.0
    if low.any():
        # erf(w) = w T(w^2) / U(w^2) at x; erf(z) = |erf(x)| bit for bit, as the
        # series is odd in w, and there erfc(z) = 1 - erf(z)
        w = x[low]
        t, u = _horner(w * w, ERF_TU)
        erf_low = w * t / u
        erfc[low] = 1.0 - np.abs(erf_low)
    # exp(-z^2) P(z) / Q(z) for 1 <= z < 8, exp(-z^2) R(z) / S(z) up to Z_UNDER
    for part, form in (((z >= 1.0) & (z < 8.0), ERFC_PQ), ((z >= 8.0) & (z <= Z_UNDER), ERFC_RS)):
        zt = z[part]
        if zt.size:
            e = np.fromiter(map(math.exp, (-zt * zt).tolist()), float, zt.size)
            p, q = _horner(zt, form)
            erfc[part] = e * p / q
    y = 0.5 * erfc
    out = np.where(x > 0, 1.0 - y, y)
    small = z < SQRT1_2
    if small.any():
        out[small] = 0.5 + 0.5 * erf_low[small[low]]  # erf_low is erf(x) at the low positions
    return out[()]
