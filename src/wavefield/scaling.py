"""Scaling function and wavelet evaluation on dyadic grids.

The order-K scaling function s(x) is the compactly supported solution of

    s(x) = sqrt(2) sum_l h_l s(2x - l),      supp s = [0, 2K-1]

normalized by integral 1. Its values at integers are the eigenvalue-1
eigenvector of the refinement matrix M_ij = sqrt(2) h_{2i-j} over the
interior integers, fixed by sum_n s(n) = 1 (an exact linear condition, so
no quadrature enters). The derivative values (K >= 3) come from the
eigenvalue-1/2 eigenvector with sum_n n s'(n) = -1. Finer dyadic grids are
filled in by the cascade: even-index points are copied from the coarser
grid, odd points come from the refinement sum, so refinement never touches
previously computed values.

All evaluation is dyadic-exact; there is no interpolation to generic reals.
Moments <x^m> satisfy a closed recursion obtained by substituting the
scaling equation.

The order K names the scaling function: each function takes K (or samples
that carry it) and looks up its taps itself; a FilterPair goes only to the
filter-bank operations.  No dyadic level above MAX_LEVEL is allocated.
"""

from dataclasses import dataclass
from functools import lru_cache
from math import comb

import numpy as np

from .errors import (
    DegenerateRefinementError,
    IndexRangeError,
    InsufficientResolutionError,
    NonDifferentiableOrderError,
)
from .filters import make_filters

# finest dyadic level allocated (1.5M samples over the order-12 support)
MAX_LEVEL = 16


@dataclass(frozen=True)
class DyadicSamples:
    """Values of s (or s') on the grid i / 2**level over [0, 2K-1].

    values[i] is the sample at x = i / 2**level; index 0 sits at the left
    support edge, everything outside the array is an implicit zero.
    """

    order: int
    level: int
    derivative_order: int
    values: np.ndarray

    def __post_init__(self):
        self.values.setflags(write=False)

    def grid(self):
        return np.arange(len(self.values)) / 2.0**self.level


def integer_values(K):
    """s(n) for n = 0..2K-1, the eigenvalue-1 refinement eigenvector."""
    h = make_filters(K).h
    if K == 1:
        # Haar, right-open convention: s = 1 on [0, 1)
        return DyadicSamples(1, 0, 0, np.array([1.0, 0.0]))
    return DyadicSamples(K, 0, 0, _eigenvector(h, K, 1.0))


def derivative_values(K):
    """s'(n) for n = 0..2K-1, eigenvalue-1/2 eigenvector, sum n s'(n) = -1."""
    h = make_filters(K).h
    if K < 3:
        raise NonDifferentiableOrderError(
            f"order {K} scaling function is not differentiable; need K >= 3"
        )
    return DyadicSamples(K, 0, 1, _eigenvector(h, K, 0.5))


def _eigenvector(h, K, lam):
    # interior integers 1..2K-2; endpoints vanish
    n_int = 2 * K - 2
    M = np.zeros((n_int, n_int))
    for i in range(1, 2 * K - 1):
        for j in range(1, 2 * K - 1):
            l = 2 * i - j
            if 0 <= l < 2 * K:
                M[i - 1, j - 1] = np.sqrt(2.0) * h[l]
    w, V = np.linalg.eig(M)
    sel = np.where(np.abs(w - lam) < 1e-8)[0]
    if len(sel) != 1:
        raise DegenerateRefinementError(
            f"eigenvalue {lam} multiplicity {len(sel)} in refinement matrix"
        )
    v = np.real(V[:, sel[0]])
    if lam == 1.0:
        v = v / v.sum()  # partition of unity at integers
    else:
        n = np.arange(1, 2 * K - 1)
        v = v / (n * v).sum() * -1.0  # differentiated x-reproduction
    out = np.zeros(2 * K)
    out[1 : 2 * K - 1] = v
    return out


def refine(samples, target_level):
    """Cascade the samples down to target_level (never up) on their order's taps.

    Even-index points of each new grid are copied verbatim from the previous
    one; odd points are filled from the refinement sum, a tap at a time over
    strided slices. Derivative samples refine with the chain rule's factor 2.
    """
    if target_level < samples.level:
        raise InsufficientResolutionError("cannot coarsen samples")
    if target_level > MAX_LEVEL:
        raise IndexRangeError(f"level must be at most {MAX_LEVEL}",
                              level=target_level)
    K = samples.order
    h = make_filters(K).h
    fac = 2.0 * np.sqrt(2.0) if samples.derivative_order else np.sqrt(2.0)
    vals = samples.values
    for j in range(samples.level, target_level):
        m = len(vals)
        new = np.zeros(2 * m - 1)
        new[0::2] = vals
        odd = new[1::2]  # odd new index 2t+1, t = 0..m-2
        for l in range(2 * K):
            # 2x - l at x = (2t+1)/2^{j+1} is level-j sample 2t+1 - l*2^j
            L = l << j  # so 2t+1 - L is in [0, m) for t in [L // 2, (m + L) // 2)
            t0, t1 = L // 2, min(m - 1, (m + L) // 2)
            odd[t0:t1] += fac * h[l] * vals[1 - L % 2::2][:max(t1 - t0, 0)]
        vals = new
    return DyadicSamples(K, target_level, samples.derivative_order, vals)


def scaling_samples(K, level):
    """Convenience: s on the level grid."""
    return refine(integer_values(K), level)


def derivative_samples(K, level):
    return refine(derivative_values(K), level)


def wavelet_samples(K, level):
    """Mother wavelet w(x) = sqrt(2) sum_l g_l s(2x - l) on the level grid.

    w shares the support [0, 2K-1] (under the index convention where w is
    built from level-1 translates of s starting at 0).
    """
    sv = scaling_samples(K, level).values
    g = make_filters(K).g
    out = np.zeros(len(sv))
    for l in range(2 * K):
        # at x = i/2^level the argument 2x - l sits on the same grid, at
        # sample index (2x - l) * 2^level = 2i - L, L = l * 2^level: from
        # i = ceil(L/2) on it runs over every other sample from L % 2, and
        # as L < len(sv) each of those i is in range
        L = l << level
        part, i0 = sv[L % 2::2], (L + 1) // 2
        out[i0:i0 + len(part)] += np.sqrt(2.0) * g[l] * part
    return DyadicSamples(K, level, 0, out)


@lru_cache(maxsize=None)
def moments(K, m):
    """<x^m> = integral x^m s(x) dx by the exact scaling-equation recursion."""
    h = make_filters(K).h
    if m < 0 or m > 2 * K:
        raise IndexRangeError("moment order out of range", m=m, max=2 * K)
    l = np.arange(2 * K, dtype=float)
    M = [1.0]
    for q in range(1, m + 1):
        acc = 0.0
        for p in range(q):
            acc += comb(q, p) * (l ** (q - p) * h).sum() * M[p]
        M.append(np.sqrt(2.0) / (2.0 ** (q + 1) - 2.0) * acc)
    return M[m]

