"""Reproducing-kernel diagnostics: partition, projection, commutator pairing."""

import numpy as np
import pytest

from wavefield.diagnostics import (
    KernelProbe,
    commutator_residual,
    gaussian_probe,
    kernel_matrix,
    kernel_projection_error,
    partition_check,
    polynomial_probe,
    project,
    wavelet_grid,
)
from wavefield.errors import (
    IndexRangeError,
    InsufficientResolutionError,
    ShapeError,
    UnsupportedOrderError,
    WindowingError,
)


class TestProbeValidation:
    def test_grid_must_resolve_scale(self):
        with pytest.raises(InsufficientResolutionError):
            KernelProbe(2, 3, 6)
        KernelProbe(2, 3, 7)  # boundary j = k + 4 is allowed

    def test_bad_order_and_scale(self):
        with pytest.raises(UnsupportedOrderError):
            KernelProbe(0, 0, 10)
        with pytest.raises(IndexRangeError):
            KernelProbe(2, -1, 10)
        # the grid level is capped before any grid is allocated
        with pytest.raises(IndexRangeError) as exc:
            KernelProbe(2, 13, 17)
        assert exc.value.context == {"grid_level": 17}

    def test_probe_function_parameters(self):
        with pytest.raises(IndexRangeError):
            polynomial_probe(-1)
        with pytest.raises(WindowingError):
            gaussian_probe(12.0, 0.0)


class TestPartition:
    def test_k2_base_scale(self):
        assert partition_check(KernelProbe(2, 0, 10)) < 1e-10

    def test_k3_scale_two(self):
        # exercises the 2^{-k/2} compensation
        assert partition_check(KernelProbe(3, 2, 10)) < 1e-10

    def test_haar_tiling(self):
        # indicator tiling; the cascade costs one ulp per level via sqrt(2)
        assert partition_check(KernelProbe(1, 0, 10)) < 1e-14
        assert partition_check(KernelProbe(1, 2, 10)) < 1e-14

    def test_high_order(self):
        assert partition_check(KernelProbe(5, 1, 12)) < 1e-10


class TestProjection:
    def test_quadratic_reproduced_k3(self):
        err = kernel_projection_error(KernelProbe(3, 0, 12), polynomial_probe(2))
        assert err < 1e-8

    def test_linear_reproduced_k2(self):
        err = kernel_projection_error(KernelProbe(2, 0, 12), polynomial_probe(1))
        assert err < 1e-8

    def test_quadratic_not_reproduced_k2(self):
        # degree equals the order: no reproduction guarantee
        err = kernel_projection_error(KernelProbe(2, 0, 12), polynomial_probe(2))
        assert err > 0.1

    @pytest.mark.parametrize("order,band_lo,band_hi", [
        (2, 0.7 / 4.0, 1.3 / 4.0),
        (3, 0.7 / 8.0, 1.3 / 8.0),
    ])
    def test_gaussian_contraction_band(self, order, band_lo, band_hi):
        g = gaussian_probe(12.0, 1.0)
        errs = [kernel_projection_error(KernelProbe(order, k, 12), g)
                for k in (2, 3, 4)]
        for prev, cur in zip(errs, errs[1:]):
            assert band_lo < cur / prev < band_hi

    def test_monotone_refinement(self):
        g = gaussian_probe(12.0, 1.0)
        errs = [kernel_projection_error(KernelProbe(2, k, 12), g)
                for k in range(1, 6)]
        assert all(b <= a + 1e-12 for a, b in zip(errs, errs[1:]))

    def test_idempotent_at_quadrature_accuracy(self):
        g = gaussian_probe(12.0, 1.0)
        # K=2 needs the finer grid: its kernel is barely Holder-smooth,
        # so the Gram quadrature converges slowly
        for order, j in ((3, 12), (2, 14)):
            probe = KernelProbe(order, 2, j)
            fx = g(probe.grid())
            once = project(probe, fx)
            twice = project(probe, once)
            x = probe.grid()
            mask = (x >= probe.margin) & (x <= 24.0 - probe.margin)
            err = np.sqrt(((twice - once)[mask] ** 2).sum() * probe.spacing)
            assert err < 1e-8

    def test_gaussian_tail_windowing(self):
        g = gaussian_probe(12.0, 1.0)
        with pytest.raises(WindowingError):
            kernel_projection_error(KernelProbe(2, 0, 12), g)
        with pytest.raises(WindowingError):
            kernel_projection_error(KernelProbe(3, 1, 12), g)
        with pytest.raises(WindowingError):
            kernel_projection_error(KernelProbe(2, 3, 12), gaussian_probe(2.0, 1.0))

    def test_array_length_guard(self):
        with pytest.raises(ShapeError):
            project(KernelProbe(2, 2, 10), np.zeros(17))


class TestCommutator:
    def test_low_degree_polynomials(self):
        res = commutator_residual(KernelProbe(3, 0, 12),
                                  polynomial_probe(1), polynomial_probe(2))
        assert res < 1e-8
        res = commutator_residual(KernelProbe(2, 0, 12),
                                  polynomial_probe(0), polynomial_probe(1))
        assert res < 1e-8

    @pytest.mark.parametrize("order", [2, 3])
    def test_gaussian_residual_decreases(self, order):
        g = gaussian_probe(12.0, 1.0)
        r2 = commutator_residual(KernelProbe(order, 2, 12), g, g)
        r3 = commutator_residual(KernelProbe(order, 3, 12), g, g)
        assert 0 < r3 < r2

    def test_wavelet_annihilated(self):
        # the kernel kills a same-scale wavelet, so the full pairing
        # deviation is exactly the norm the delta would have produced
        probe = KernelProbe(3, 2, 12)
        w = wavelet_grid(probe, 45)  # support [11.25, 12.5], mid-window
        res = commutator_residual(probe, w, w)
        norm2 = float(w @ w) * probe.spacing
        assert abs(norm2 - 1.0) < 1e-6  # wavelet normalization sanity
        assert abs(res - norm2) < 1e-8
        pw = project(probe, w)
        x = probe.grid()
        mask = (x >= probe.margin) & (x <= 24.0 - probe.margin)
        assert abs(float(w[mask] @ pw[mask]) * probe.spacing) < 1e-8

    def test_wavelet_support_guard(self):
        with pytest.raises(IndexRangeError):
            wavelet_grid(KernelProbe(3, 2, 12), -1)
        with pytest.raises(IndexRangeError):
            wavelet_grid(KernelProbe(3, 2, 12), 92)  # 92/4 + 5/4 > 24


class TestKernelMatrix:
    def test_exact_symmetry_and_consistency(self):
        probe = KernelProbe(3, 0, 6)
        mat = kernel_matrix(probe)
        assert (mat == mat.T).all()
        g = gaussian_probe(12.0, 1.0)
        fx = g(probe.grid())
        via_matrix = (mat * probe.spacing) @ fx
        assert np.abs(via_matrix - project(probe, fx)).max() < 1e-12

    def test_grid_cap(self):
        with pytest.raises(ShapeError):
            kernel_matrix(KernelProbe(2, 0, 10))
