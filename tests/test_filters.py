import hashlib
from math import comb

import numpy as np
import pytest

from wavefield.errors import UnsupportedOrderError
from wavefield.filters import (
    K_MAX,
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


# sha256 of make_filters(K).h.tobytes() and .g.tobytes(), K = 1..12: the
# float64 taps are the 60-digit factorization rounded once, and must not
# move by a bit
TAP_SHA256 = {
    1: ("a79009788da6562af5d0a823a8d4d5b76d051e4e53baf8b1c65649a4dc454f37",
        "c876e02b9b9239e30080191a5754295da4bb676c6f7accf335acb2db9d0e6798"),
    2: ("9871d432a13fcd07b609c12f10fb3a4331ca5d97ce52a1200ac9a4beebc901e0",
        "da054b5fe9f0b0299230e7236c66a2894e3536a32ca459cd7b9e5d3392da5865"),
    3: ("ab7704be270d1ec349de058e5dd7931f872d1b23aa417e608136170466522b52",
        "bfc68bacb0ddd4640fb7dbfdee8393038a610d3044f26e40185c1a13080b5be0"),
    4: ("f3a232aaa71fadb49e09999caa15c6dbb702e46f8c1521d1726dbb96c934f543",
        "aad5837c7ea2a38b3b067bcef2496ee42c6f5c07e676cfa6d925a5fce488d491"),
    5: ("1f01d010e821b82b4b44c8e46b682461270a2883b28e12282c8b68b5dbf1459f",
        "5789bc3d303aaaada1799f5ba765e75a05eae7c76b896cb138f27b1f1711e50c"),
    6: ("b44d755cc7930d28ba0b02d9991c30e189052fe2790f899e6a1407ce318dc8b5",
        "d4a0b7c95b58ec607e296120094383540746f7b2eccbd1440058491e9c1174ec"),
    7: ("f764cd4efeb83069160a449532bd699003f1455714cc5311667b50d8addb9d06",
        "e0b9509e77bc64b4744f71ef4ddad2adfa8927c9e78b5041c3c98e4bec155035"),
    8: ("b34b5ad85f1db83f365cbe8367b4dda006a145ab1e90bb543f395416cbc60289",
        "8f4c89fc5bbd90ccc3153380af8acc4d6e665f17ebaeb38b45baf1bcc5ef6763"),
    9: ("ba948319ca42414b3bc94d754da158262c7eb7dbd92b847977f797cc4593b3a0",
        "6fb2d2aff3826a5c7980ff6feec2ad37087bf542e1f64ace417449edb21e6977"),
    10: ("241d7fc8a2f1cb01da7f93865fc45f1ab795dd90e3b4a3cbf7ce76bcff0939cd",
        "2b2b413813e672950575cc89fbc39d980bb4cc2a6a90b0fd6f97d193f9fd2e08"),
    11: ("c4806d4beca50e75cdf75b3271cffd0568d5b49fdddcdfaee684f4d0143f47f8",
        "611490d8d106367ba2987d5794f1b02197aa80668ad0986b7c82042fa4f82651"),
    12: ("8b5703c8acf071ac47b0520834e3e94e4f9e51324c6fc827e7cc8b000f194842",
        "18945e62f309d5ff053766b77b22e9b542dbb58d346c0f6b2a3f258f202f0fa6"),
}


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


@pytest.mark.parametrize("K", range(1, K_MAX + 1))
def test_literal_taps_are_the_factorization_rounded_once(K):
    # the oracle for the literals in filters._TAPS: the 60-digit spectral
    # factorization, each tap rounded to float64 once
    derived = np.array([float(c) for c in _spectral_factor_mp(K)])
    assert derived.tobytes() == make_filters(K).h.tobytes()


def _laurent_roots_outside(K):
    """Reference: roots of z^{K-1} P(y(z)), the degree-(2K-2) polynomial
    in z, that lie outside the unit circle."""
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


@pytest.mark.parametrize("K", range(1, K_MAX + 1))
def test_taps_bit_pinned(K):
    fp = make_filters(K)
    digests = tuple(hashlib.sha256(t.tobytes()).hexdigest() for t in (fp.h, fp.g))
    assert digests == TAP_SHA256[K]


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
