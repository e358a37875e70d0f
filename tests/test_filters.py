import numpy as np
import pytest

from wavefield.errors import UnsupportedOrderError
from wavefield.filters import (
    K_MAX,
    _extremal_roots,
    constraint_residuals,
    make_filters,
)

SQ2 = np.sqrt(2.0)
SQ3 = np.sqrt(3.0)

# closed-form K=2 taps, the oracle for the construction
H2 = np.array([
    (1 + SQ3) / (4 * SQ2),
    (3 + SQ3) / (4 * SQ2),
    (3 - SQ3) / (4 * SQ2),
    (1 - SQ3) / (4 * SQ2),
])


def _laurent_roots_outside(K):
    """Reference: roots of z^{K-1} P(y(z)), the degree-(2K-2) polynomial
    in z, that lie outside the unit circle."""
    from math import comb

    from mpmath import mpf, polyroots

    coeffs = [mpf(0)] * (2 * K - 1)
    for j in range(K):
        c = mpf(comb(K - 1 + j, j)) * (-1) ** j / mpf(4) ** j
        for i in range(2 * j + 1):
            coeffs[K - 1 - j + i] += c * comb(2 * j, i) * (-1) ** i
    roots = polyroots(list(reversed(coeffs)), maxsteps=200, extraprec=160)
    return [r for r in roots if abs(r) > 1]


@pytest.mark.parametrize("K", range(2, K_MAX + 1))
def test_roots_in_y_match_laurent_factorization(K):
    from mpmath import mp

    with mp.workdps(60):
        new = _extremal_roots(K)
        ref = _laurent_roots_outside(K)
        assert len(new) == len(ref) == K - 1
        for r in new:
            assert min(abs(r - q) for q in ref) < mp.mpf(10) ** -45


def test_k1_haar():
    fp = make_filters(1)
    np.testing.assert_allclose(fp.h, [1 / SQ2, 1 / SQ2], rtol=0, atol=1e-15)
    np.testing.assert_allclose(fp.g, [1 / SQ2, -1 / SQ2], rtol=0, atol=1e-15)


def test_k2_closed_form():
    fp = make_filters(2)
    assert np.abs(fp.h - H2).max() < 1e-14


def test_k2_wavelet_is_alternating_flip():
    fp = make_filters(2)
    h = fp.h
    expect = np.array([h[3], -h[2], h[1], -h[0]])
    # bit-identical mapped values, not just close
    assert all(a == b for a, b in zip(fp.g, expect))


def test_k3_constraint_families():
    r = constraint_residuals(make_filters(3).h)
    assert r["sum"] < 1e-12
    assert r["orthonormality"] < 1e-12
    assert r["moments"] < 1e-12


@pytest.mark.parametrize("K", range(1, K_MAX + 1))
def test_all_orders_satisfy_constraints(K):
    fp = make_filters(K)
    assert len(fp.h) == 2 * K and len(fp.g) == 2 * K
    r = constraint_residuals(fp.h)
    assert r["sum"] < 1e-12
    assert r["orthonormality"] < 1e-12
    # scaled by the largest term of each moment sum (see filters docstring)
    assert r["moments"] < 1e-12


@pytest.mark.parametrize("K", range(1, 7))
def test_h_g_double_shift_orthogonality(K):
    fp = make_filters(K)
    n = 2 * K
    assert abs(fp.g.sum()) < 1e-12
    for m in range(-K, K + 1):
        acc = sum(
            fp.h[i] * fp.g[i - 2 * m]
            for i in range(n)
            if 0 <= i - 2 * m < n
        )
        assert abs(acc) < 1e-12, (K, m)


def test_determinism():
    a = make_filters(7)
    b = make_filters(7)
    assert all(x == y for x, y in zip(a.h, b.h))
    assert all(x == y for x, y in zip(a.g, b.g))


@pytest.mark.parametrize("K", [0, -1, K_MAX + 1, 2.5, "3"])
def test_out_of_range_orders_rejected(K):
    with pytest.raises(UnsupportedOrderError):
        make_filters(K)


def test_immutability():
    fp = make_filters(2)
    with pytest.raises(ValueError):
        fp.h[0] = 0.0
