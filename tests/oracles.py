"""Reference computations the tests compare the package against.

None of them is read by a run of wavefield, the benchmark or a demo;
each stays independent of the code it checks.

  * quadrature_oracle and per_entry_sums: the plain-quadrature oracle one
    table entry at a time, a fresh product per factor, the reference that
    connection's prefix-product oracle sums must match bit for bit.
  * aitken_limit and extrapolated_oracle: the Aitken-extrapolated form of
    the plain-quadrature oracle, which reaches for the rough low orders the
    accuracy that the plain level-L sum cannot (criterion 06).  Built on
    connection's oracle sums alone, never on the fixed-point solver.
  * resolve_d_exponent: settles the per-scale exponent of D
    (connection.D_RESCALE_EXPONENT) against a scale-1 oracle rather than
    trusting the change of variables (criterion 07).
  * reproduction_coeffs: the coefficients c_n(m) that expand x^m =
    sum_n c_n(m) s(x - n) pointwise for m < K, from scaling.moments
    (criterion 04).
"""

from math import comb

import numpy as np

from wavefield.connection import _oracle_samples, _oracle_sums, derivative_overlaps
from wavefield.errors import (
    IndexRangeError,
    NonDifferentiableOrderError,
    ShapeError,
    WavefieldError,
)
from wavefield.filters import make_filters
from wavefield.scaling import MAX_LEVEL, moments

# Aitken extrapolation of the oracle is trusted only where the ratios of
# successive level differences agree to this fraction (among the tables
# whose raw sums miss the criterion-06 tolerances the largest drift is 7%,
# for gamma-4 at order 2)
RATIO_AGREEMENT = 0.25

# level differences at most this large, relative to max(1, |sum|), are
# rounding noise: their ratios say nothing about convergence
ROUNDING_FLOOR = 64 * np.finfo(float).eps


class InsufficientVanishingMomentsError(WavefieldError):
    name = "insufficient-vanishing-moments"


def quadrature_oracle(order, factors, level, scale=0):
    """Riemann-sum value of int prod_i f_i(x - n_i) dx, f_i the scaling
    function of the given order (or its derivative) sampled at the level.

    factors: sequence of (translation, derivative_order) with derivative
    order 0 or 1; at most 4 factors.  Derivative factors use a centered
    finite difference of the refined samples, which keeps this path
    independent of the fixed-point solver AND of the derivative-value
    eigenproblem.  The plain scaled sum equals the trapezoid value for
    orders >= 2 (endpoint samples vanish) and is exact for the order-1
    indicator, where a literal trapezoid rule is not.

    scale k multiplies the scale-0 integral by 2^{k[(m-2)/2 + sum o_i]}
    (substitution u = 2^k x with one 2^{k/2} per factor and 2^k per
    derivative).
    """
    factors = [(int(n), int(d)) for n, d in factors]
    if not 1 <= len(factors) <= 4:
        raise ShapeError("oracle supports 1..4 factors", count=len(factors))
    if level > MAX_LEVEL or level < 1:
        raise IndexRangeError(f"oracle level must lie in 1..{MAX_LEVEL}",
                              level=level)
    if any(d not in (0, 1) for _, d in factors):
        raise ShapeError("only first derivatives are supported")
    if any(d == 1 for _, d in factors) and order < 3:
        raise NonDifferentiableOrderError(
            "derivative factors need order >= 3", order=order
        )

    s = _oracle_samples(order, level, False)
    ds = _oracle_samples(order, level, True) if any(d for _, d in factors) else None
    g = 2**level
    n1 = len(s)
    lo = max([0] + [n * g for n, _ in factors])
    hi = min([n1] + [n1 + n * g for n, _ in factors])
    if hi <= lo:
        total = 0.0
    else:
        acc = np.ones(hi - lo)
        for n, d in factors:
            src = ds if d else s
            acc = acc * src[lo - n * g : hi - n * g]
        total = acc.sum() / g
    m = len(factors)
    der = sum(d for _, d in factors)
    return float(total * 2.0 ** (scale * ((m - 2) / 2.0 + der)))


def per_entry_sums(t, offsets, level, scale):
    """quadrature_oracle of t's integrand at each offset tuple, one entry
    at a time: the reference for connection's oracle sums."""
    derivative = t.kind == "derivative-D"
    return np.array([
        quadrature_oracle(t.order, [(0, derivative)]
                          + [(n, derivative) for n in tup], level, scale)
        for tup in offsets
    ])


def aitken_limit(sums):
    """Aitken delta-squared limit of oracle sums at four successive levels.

    sums has shape (4, ...): raw sums at levels L-3..L for any number of
    entries.  With successive differences d1, d2, d3 and ratios
    r1 = d2/d1, r2 = d3/d2, an entry is extrapolated from its last three
    levels, S_L - d3^2 / (d3 - d2), only when

      * 0 < r2 < 1 (monotone geometric convergence),
      * |r1 - r2| <= RATIO_AGREEMENT * r2 (the ratio is stable), and
      * |d2| and |d3| exceed ROUNDING_FLOOR * max(1, |S_L|) (the
        differences are not rounding noise).

    Every other entry keeps its raw level-L sum.  Returns the limits and a
    boolean mask of the entries that fell back.
    """
    s = np.asarray(sums, dtype=float)
    if s.shape[:1] != (4,):
        raise ShapeError("need sums at exactly four levels", shape=s.shape)
    d1, d2, d3 = np.diff(s, axis=0)
    floor = ROUNDING_FLOOR * np.maximum(1.0, np.abs(s[3]))
    with np.errstate(divide="ignore", invalid="ignore"):
        r1, r2 = d2 / d1, d3 / d2
        ok = ((np.abs(d2) > floor) & (np.abs(d3) > floor)
              & (r2 > 0) & (r2 < 1)
              & (np.abs(r1 - r2) <= RATIO_AGREEMENT * r2))
        limit = s[3] - d3 * d3 / (d3 - d2)
    return np.where(ok, limit, s[3]), ~ok


def extrapolated_oracle(t, level):
    """Oracle deviation of a table, raw and Aitken-extrapolated.

    Each entry's plain-quadrature sum, on the filters of the table's own
    order and at its own scale, is taken at levels level-3..level
    and passed through aitken_limit, which extrapolates only a stable
    geometric sequence and otherwise keeps the raw level-L sum (a
    fallback).  Returns the largest raw level-L deviation ('raw', the
    oracle_deviation figure), the largest extrapolated deviation
    ('extrapolated'), the number of fallback entries ('fallbacks') and of
    entries ('entries').
    """
    if not 4 <= level <= MAX_LEVEL:
        raise IndexRangeError(f"extrapolated oracle level must lie in "
                              f"4..{MAX_LEVEL}", level=level)
    offsets = sorted(t.entries)
    vals = np.array([t.entries[tup] for tup in offsets])
    sums = np.array([
        _oracle_sums(t, offsets, lev, t.scale)
        for lev in range(level - 3, level + 1)
    ]).reshape(4, len(offsets))
    limits, fell_back = aitken_limit(sums)
    return {
        "raw": float(np.abs(sums[3] - vals).max(initial=0.0)),
        "extrapolated": float(np.abs(limits - vals).max(initial=0.0)),
        "fallbacks": int(fell_back.sum()),
        "entries": len(offsets),
    }


def resolve_d_exponent(order, level=12):
    """Settle the per-scale exponent of D by direct scale-1 comparison.

    Candidate exponents 1 and 2 differ by a factor 2 at k=1, far above
    the finite-difference error of the oracle, so the comparison is
    unambiguous.  Returns the winning exponent and both deviations.
    """
    t = derivative_overlaps(order)
    offsets = [tup for tup in sorted(t.entries) if tup[0] >= 0]
    vals = np.array([t.entries[tup] for tup in offsets])
    oracle = _oracle_sums(t, offsets, level, 1)
    devs = {expo: float(np.abs(vals * 2.0**expo - oracle).max())
            for expo in (1, 2)}
    winner = min(devs, key=devs.get)
    return {
        "exponent": winner,
        "deviation": devs[winner],
        "rejected_exponent": max(devs, key=devs.get),
        "rejected_deviation": max(devs.values()),
    }


def reproduction_coeffs(K, m, n_range):
    """Coefficients c_n(m) with sum_n c_n(m) s(x - n) = x^m pointwise.

    c_n(m) = integral x^m s(x - n) dx = sum_p C(m, p) n^{m-p} <x^p>.
    Requires m < K (vanishing moments of the wavelet side).
    """
    make_filters(K)  # validates the order
    if m < 0:
        raise IndexRangeError("reproduced degree must be nonnegative", m=m)
    if m >= K:
        raise InsufficientVanishingMomentsError(
            f"degree {m} not reproducible at order {K}; need m < K"
        )
    mom = [moments(K, p) for p in range(m + 1)]
    out = []
    for n in n_range:
        out.append(sum(comb(m, p) * float(n) ** (m - p) * mom[p] for p in range(m + 1)))
    return np.array(out)
