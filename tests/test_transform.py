import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wavefield.errors import DepthError, ShapeError
from wavefield.filters import K_MAX, make_filters
from wavefield.scaling import reproduction_coeffs
from wavefield.transform import (
    CoeffPyramid,
    CoeffVector,
    analysis_step,
    max_levels,
    multilevel,
    synthesis_step,
)

SQ2 = np.sqrt(2.0)


def test_haar_constant_signal():
    fp = make_filters(1)
    c, d = analysis_step(CoeffVector(0, [1.0, 1, 1, 1]), fp)
    np.testing.assert_allclose(c.values, [SQ2, SQ2], atol=1e-15)
    np.testing.assert_allclose(d.values, [0, 0], atol=1e-15)
    assert c.scale == -1 and d.scale == -1


def test_haar_oscillating_signal():
    fp = make_filters(1)
    c, d = analysis_step(CoeffVector(0, [1.0, -1, 0, 0]), fp)
    np.testing.assert_allclose(c.values, [0, 0], atol=1e-15)
    np.testing.assert_allclose(d.values, [SQ2, 0], atol=1e-15)


def test_norm_preserved_k2():
    rng = np.random.default_rng(7)
    v = CoeffVector(0, rng.standard_normal(16))
    c, d = analysis_step(v, make_filters(2))
    before = (v.values**2).sum()
    after = (c.values**2).sum() + (d.values**2).sum()
    assert abs(before - after) < 1e-12


@pytest.mark.parametrize("K", range(1, 7))
def test_round_trip(K):
    rng = np.random.default_rng(100 + K)
    fp = make_filters(K)
    v = CoeffVector(3, rng.standard_normal(32))
    c, d = analysis_step(v, fp)
    back = synthesis_step(c, d, fp)
    assert back.scale == v.scale
    assert np.abs(back.values - v.values).max() < 1e-12


def test_synthesis_of_deltas_reproduces_filters():
    fp = make_filters(2)
    delta = np.zeros(4)
    delta[0] = 1.0
    zero = np.zeros(4)
    v = synthesis_step(CoeffVector(0, delta), CoeffVector(0, zero), fp)
    np.testing.assert_allclose(v.values[:4], fp.h, atol=1e-15)
    np.testing.assert_allclose(v.values[4:], 0, atol=1e-15)
    w = synthesis_step(CoeffVector(0, zero), CoeffVector(0, delta), fp)
    np.testing.assert_allclose(w.values[:4], fp.g, atol=1e-15)


def test_multilevel_zero_levels_is_identity():
    fp = make_filters(2)
    v = CoeffVector(0, np.arange(8.0))
    p = multilevel(v, fp, 0)
    assert p.levels == 0
    np.testing.assert_array_equal(p.coarse.values, v.values)
    back = multilevel(p, fp, 0, "inverse")
    np.testing.assert_array_equal(back.values, v.values)


def test_multilevel_haar_two_stages():
    fp = make_filters(1)
    p = multilevel(CoeffVector(0, [1.0, 2, 3, 4]), fp, 2)
    assert len(p.coarse) == 1
    assert abs(p.coarse.values[0] - 5.0) < 1e-14
    assert [len(d) for d in p.details] == [2, 1]


def test_multilevel_parseval_k3():
    rng = np.random.default_rng(42)
    fp = make_filters(3)
    v = CoeffVector(0, rng.standard_normal(32))
    p = multilevel(v, fp, 3)
    assert abs((p.flatten() ** 2).sum() - (v.values**2).sum()) < 1e-12
    back = multilevel(p, fp, 3, "inverse")
    assert np.abs(back.values - v.values).max() < 1e-12


def test_max_levels_rule():
    # every step input must hold at least 2K entries
    assert max_levels(4, 1) == 2
    assert max_levels(32, 3) == 3
    assert max_levels(16, 4) == 2
    assert max_levels(8, 5) == 0


def test_depth_error():
    fp = make_filters(3)
    v = CoeffVector(0, np.zeros(32))
    with pytest.raises(DepthError):
        multilevel(v, fp, 4)
    with pytest.raises(DepthError):
        multilevel(v, fp, -1)


def test_shape_errors():
    fp = make_filters(3)
    with pytest.raises(ShapeError):
        CoeffVector(0, np.zeros(12))  # not a power of two
    with pytest.raises(ShapeError):
        analysis_step(CoeffVector(0, np.zeros(4)), fp)  # 4 < 2K
    with pytest.raises(ShapeError):
        synthesis_step(CoeffVector(0, np.zeros(8)), CoeffVector(0, np.zeros(4)), fp)
    with pytest.raises(ShapeError):
        multilevel(CoeffVector(0, np.zeros(8)), fp, 1, "sideways")


def test_pyramid_depth_mismatch_on_inverse():
    fp = make_filters(2)
    p = multilevel(CoeffVector(0, np.arange(16.0)), fp, 2)
    with pytest.raises(DepthError):
        multilevel(p, fp, 1, "inverse")


@pytest.mark.parametrize("K", range(1, 7))
@pytest.mark.parametrize("N", [16, 64])
def test_analysis_matrix_is_orthogonal(K, N):
    if N < 2 * K:
        pytest.skip("length below filter support")
    fp = make_filters(K)
    w = np.zeros((N, N))
    for j in range(N):
        e = np.zeros(N)
        e[j] = 1.0
        c, d = analysis_step(CoeffVector(0, e), fp)
        w[: N // 2, j] = c.values
        w[N // 2 :, j] = d.values
    np.testing.assert_allclose(w @ w.T, np.eye(N), atol=1e-12)


@pytest.mark.parametrize("m", [0, 1, 2])
def test_detail_channel_kills_low_degree_polynomials(m):
    # sampling a degree-m polynomial (m < K) through the reproduction
    # coefficients makes every detail entry vanish except where the
    # periodic wrap interrupts the polynomial trend
    K, N = 3, 64
    fp = make_filters(K)
    v = CoeffVector(0, reproduction_coeffs(K, m, range(N)))
    _, d = analysis_step(v, fp)
    interior = d.values[: (N - 2 * K + 1) // 2]
    assert np.abs(interior).max() < 1e-10


@settings(max_examples=60, deadline=None)
@given(order=st.integers(1, K_MAX), data=st.data())
def test_multilevel_round_trip_and_parseval(order, data):
    # any order, power-of-two length >= 2K, any admissible depth
    n = data.draw(st.sampled_from([2**p for p in range(1, 11) if 2**p >= 2 * order]),
                  label="n")
    levels = data.draw(st.integers(0, max_levels(n, order)), label="levels")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    x = np.random.default_rng(seed).standard_normal(n)
    fp = make_filters(order)
    pyr = multilevel(CoeffVector(0, x), fp, levels, "forward")
    assert pyr.levels == levels and len(pyr.flatten()) == n
    energy = (x**2).sum()
    assert abs((pyr.flatten() ** 2).sum() - energy) <= 1e-12 * energy
    back = multilevel(pyr, fp, levels, "inverse")
    assert back.scale == 0
    assert np.abs(back.values - x).max() <= 1e-12 * np.abs(x).max()
