import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wavefield.errors import (
    DegenerateRefinementError,
    IndexRangeError,
    InsufficientVanishingMomentsError,
    NonDifferentiableOrderError,
)
from wavefield.filters import make_filters
from wavefield.scaling import (
    MAX_LEVEL,
    DyadicSamples,
    _eigenvector,
    derivative_samples,
    derivative_values,
    integer_values,
    moments,
    refine,
    reproduction_coeffs,
    scaling_samples,
    wavelet_samples,
)

SQ3 = np.sqrt(3.0)


def partition_sum(values, K, level, xcount):
    """sum_n s(x - n) on the level grid for x in [0, xcount/2^level]."""
    g = 2**level
    acc = np.zeros(xcount + 1)
    for n in range(-(2 * K - 2), 1):
        seg = values[-n * g : -n * g + xcount + 1]
        acc[: len(seg)] += seg
    return acc


def test_k2_integer_values_closed_form():
    iv = integer_values(2)
    assert abs(iv.values[1] - (1 + SQ3) / 2) < 1e-12
    assert abs(iv.values[2] - (1 - SQ3) / 2) < 1e-12
    assert iv.values[0] == 0.0 and iv.values[3] == 0.0


@pytest.mark.parametrize("taps,count", [
    (np.zeros(4), 0),  # no eigenvalue 1 at all
    (np.array([0.0, 1.0, 1.0, 0.0]) / np.sqrt(2.0), 2),  # M = I: a double one
])
def test_refinement_without_simple_eigenvalue(taps, count):
    with pytest.raises(DegenerateRefinementError, match=f"multiplicity {count}"):
        _eigenvector(taps, 2, 1.0)


def test_k3_integer_sum_is_one():
    iv = integer_values(3)
    assert abs(iv.values.sum() - 1.0) < 1e-12


def test_one_refinement_step_by_hand():
    r = refine(integer_values(2), 1)
    # s(1/2) = sqrt(2) h_0 s(1)
    assert abs(r.values[1] - (2 + SQ3) / 4) < 1e-12


def test_haar_interior_samples_are_one():
    r = refine(integer_values(1), 5)
    assert np.abs(r.values[:-1] - 1.0).max() < 1e-14 and r.values[-1] == 0.0


@pytest.mark.parametrize("K", range(2, 7))
def test_riemann_sum_level12(K):
    s = scaling_samples(K, 12)
    assert abs(s.values.sum() * 2.0**-12 - 1.0) < 1e-8


def test_refine_level_capped():
    # refused before the cascade allocates anything
    with pytest.raises(IndexRangeError) as exc:
        refine(integer_values(3), MAX_LEVEL + 1)
    assert exc.value.context == {"level": MAX_LEVEL + 1}


def test_refinement_never_modifies_coarse_points():
    r8 = refine(integer_values(3), 8)
    r10 = refine(r8, 10)
    assert np.all(r10.values[::4] == r8.values)
    # idempotence: refining to the current level is the identity
    again = refine(r10, 10)
    assert np.all(again.values == r10.values)


def test_derivative_values_k3():
    dv = derivative_values(3)
    n = np.arange(6)
    assert abs(dv.values.sum()) < 1e-10
    assert abs((n * dv.values).sum() + 1.0) < 1e-12


def test_derivative_rejected_below_k3():
    with pytest.raises(NonDifferentiableOrderError):
        derivative_values(2)


@pytest.mark.parametrize("K", range(2, 7))
def test_partition_of_unity_level10(K):
    s = scaling_samples(K, 10)
    acc = partition_sum(s.values, K, 10, 2**10)
    assert np.abs(acc - 1.0).max() < 1e-10


@pytest.mark.parametrize("K", range(2, 7))
def test_orthonormality_by_quadrature_level12(K):
    s = scaling_samples(K, 12).values
    g = 2**12
    for n in range(0, 2 * K - 1):
        hi = len(s) - n * g
        acc = (s[:hi] * s[n * g :]).sum() * 2.0**-12
        target = 1.0 if n == 0 else 0.0
        assert abs(acc - target) < 1e-4, (K, n)


@pytest.mark.parametrize("K", range(3, 7))
def test_orthonormality_trapezoid_level14(K):
    # endpoint samples vanish, so the plain scaled sum is the trapezoid value
    s = scaling_samples(K, 14).values
    g = 2**14
    for n in range(0, 2 * K - 1):
        hi = len(s) - n * g
        acc = (s[:hi] * s[n * g :]).sum() * 2.0**-14
        target = 1.0 if n == 0 else 0.0
        assert abs(acc - target) < 1e-8, (K, n)


@pytest.mark.parametrize("K,level,bound", [(3, 14, 1.0), (4, 14, 1e-2), (5, 14, 1e-3), (6, 14, 1e-3)])
def test_derivative_consistency_fd(K, level, bound):
    # centered differences of s converge to s' at the Holder rate of s',
    # which is slow at low K: measured max-norm gaps at level 14 are
    # 8.0e-1 (K=3), 6.7e-3 (K=4), 1.7e-4 (K=5), 9.4e-6 (K=6); the 1e-3
    # regime is only reachable for K >= 5
    s = scaling_samples(K, level).values
    ds = derivative_samples(K, level).values
    h = 2.0**-level
    fd = (s[2:] - s[:-2]) / (2 * h)
    assert np.abs(fd - ds[1:-1]).max() < bound


def test_moments():
    assert moments(3, 0) == 1.0
    assert abs(moments(1, 1) - 0.5) < 1e-14
    assert abs(moments(2, 1) - (3 - SQ3) / 2) < 1e-14


@pytest.mark.parametrize("m", [-1, 7])
def test_moment_order_out_of_range(m):
    with pytest.raises(IndexRangeError) as exc:
        moments(3, m)
    assert exc.value.context == {"m": m, "max": 6}


def test_reproduction_coeffs_low_orders():
    c0 = reproduction_coeffs(3, 0, range(-3, 4))
    assert np.abs(c0 - 1.0).max() < 1e-14
    c1 = reproduction_coeffs(3, 1, range(-3, 4))
    mean = moments(3, 1)
    assert np.abs(c1 - (np.arange(-3, 4) + mean)).max() < 1e-12


def test_reproduction_degree_cap():
    with pytest.raises(InsufficientVanishingMomentsError):
        reproduction_coeffs(2, 2, range(3))


def test_reproduction_negative_degree_refused():
    # without the check range(m + 1) is empty and every coefficient is 0
    with pytest.raises(IndexRangeError) as exc:
        reproduction_coeffs(3, -1, range(3))
    assert exc.value.context == {"m": -1}


@pytest.mark.parametrize("K,m", [(3, 2), (4, 3), (6, 5)])
def test_polynomial_reproduction_on_grid(K, m):
    # evaluate sum_n c_n(m) s(x-n) on a level-10 grid across [0, 2K-1];
    # the identity is pointwise-exact, the residual is float64 noise
    level = 10
    g = 2**level
    s = scaling_samples(K, level).values
    width = 2 * K - 1
    ns = range(-(2 * K - 2), width + 1)
    c = reproduction_coeffs(K, m, ns)
    x = np.arange(width * g + 1) / g
    acc = np.zeros_like(x)
    for cn, n in zip(c, ns):
        lo = n * g
        a, b = max(lo, 0), min(lo + len(s), len(acc))
        if a < b:
            acc[a:b] += cn * s[a - lo : b - lo]
    assert np.abs(acc - x**m).max() < 1e-8


def test_wavelet_samples_haar():
    w = wavelet_samples(1, 2)
    np.testing.assert_allclose(w.values, [1.0, 1.0, -1.0, -1.0, 0.0], atol=1e-14)


def test_wavelet_orthogonal_to_scaling_translates():
    level = 12
    w = wavelet_samples(3, level).values
    s = scaling_samples(3, level).values
    g = 2**level
    for n in range(-2, 3):
        lo, hi = max(0, n * g), min(len(s) + n * g, len(w))
        acc = (w[lo:hi] * s[lo - n * g : hi - n * g]).sum() * 2.0**-level
        assert abs(acc) < 1e-8, n


def _wavelet_samples_one_level_deeper(K, level):
    """Reference: the cascade refined to level + 1, read at its even samples
    (verbatim copies of the level samples)."""
    sv = refine(integer_values(K), level + 1).values
    g = make_filters(K).g
    n = (2 * K - 1) * 2**level + 1
    out = np.zeros(n)
    i = np.arange(n)
    for l in range(2 * K):
        src = 4 * i - (l << (level + 1))
        ok = (src >= 0) & (src < len(sv))
        out[i[ok]] += np.sqrt(2.0) * g[l] * sv[src[ok]]
    return out


@pytest.mark.parametrize("K", range(1, 13))
def test_wavelet_samples_match_deeper_cascade_bitwise(K):
    for level in range(0, 11):
        got = wavelet_samples(K, level).values
        ref = _wavelet_samples_one_level_deeper(K, level)
        assert got.tobytes() == ref.tobytes(), level


def refine_index_arrays(samples, target_level):
    """The cascade as refine computed it with index arrays: every odd point
    t of the new grid gathers its in-range sources 2t+1 - l*2^j through a
    boolean mask.  The reference for refine's strided slices."""
    K = samples.order
    h = make_filters(K).h
    fac = 2.0 * np.sqrt(2.0) if samples.derivative_order else np.sqrt(2.0)
    vals = samples.values
    for j in range(samples.level, target_level):
        m = len(vals)
        new = np.zeros(2 * m - 1)
        new[0::2] = vals
        odd = new[1::2]
        t = np.arange(m - 1)
        for l in range(2 * K):
            src = 2 * t + 1 - (l << j)
            ok = (src >= 0) & (src < m)
            odd[t[ok]] += fac * h[l] * vals[src[ok]]
        vals = new
    return DyadicSamples(K, target_level, samples.derivative_order, vals)


@settings(max_examples=144, deadline=None)
@given(K=st.integers(1, 12), level=st.integers(0, 12), data=st.data())
def test_refine_slices_match_index_arrays(K, level, data):
    # bit for bit, from the integer values or from an intermediate grid,
    # for s and (K >= 3) for s'
    derivative = K >= 3 and data.draw(st.booleans(), label="derivative")
    start = (derivative_values if derivative else integer_values)(K)
    start = refine_index_arrays(start, data.draw(st.integers(0, level),
                                                 label="start"))
    got = refine(start, level)
    want = refine_index_arrays(start, level)
    assert (got.level, got.derivative_order) == (want.level, want.derivative_order)
    assert got.values.tobytes() == want.values.tobytes()


def wavelet_samples_index_arrays(K, level):
    """The mother wavelet as wavelet_samples computed it with index arrays:
    every grid point i gathers its in-range source 2i - l*2^level through a
    boolean mask.  The reference for wavelet_samples' strided slices."""
    sv = scaling_samples(K, level).values
    g = make_filters(K).g
    n = (2 * K - 1) * 2**level + 1
    out = np.zeros(n)
    i = np.arange(n)
    for l in range(2 * K):
        src = 2 * i - (l << level)
        ok = (src >= 0) & (src < len(sv))
        out[i[ok]] += np.sqrt(2.0) * g[l] * sv[src[ok]]
    return out


@pytest.mark.parametrize("K", range(1, 13))
def test_wavelet_slices_match_index_arrays(K):
    for level in (0, 1, 3, 6, 10):
        got = wavelet_samples(K, level)
        assert (got.order, got.level, got.derivative_order) == (K, level, 0)
        want = wavelet_samples_index_arrays(K, level)
        assert got.values.tobytes() == want.tobytes(), level


def test_wavelet_samples_memory_stays_bounded():
    # 45057 samples, a 0.34 MiB result: a tap at a time over strided
    # slices peaks near 0.9 MiB, the per-tap index arrays took it near 2.1
    wavelet_samples(6, 12)
    tracemalloc.start()
    try:
        wavelet_samples(6, 12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * 2**20, peak
