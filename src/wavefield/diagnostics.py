"""Kernel-level checks of the resolution truncation.

Truncating the field to scale k replaces delta(x - y) by the reproducing
kernel K^k(x, y) = sum_n s^k_n(x) s^k_n(y) of the scale-k subspace.  The
checks here probe that kernel on a dyadic grid: the partition of unity
carried by the smearing weights, the projection error for polynomial and
gaussian test functions, and the deviation of the smeared equal-time
pairing from the canonical one.

All probes live on the fixed window [0, 24) with a level-j grid and
buffered translates (n runs negative enough that every kernel row inside
the window is complete; nothing wraps).  Test functions must stay
2(2K-1) scale-k lattice units away from the window ends: inside that
margin the coefficient quadrature is truncated, so error norms and
pairings are evaluated on the interior only, and gaussian probes whose
tails reach the margin are rejected outright.  A probe whose samples or
result leave the float range, such as a high-degree polynomial, raises
index.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    IndexRangeError,
    InsufficientResolutionError,
    ShapeError,
    WindowingError,
)
from .filters import make_filters
from .scaling import MAX_LEVEL, scaling_samples, wavelet_samples

__all__ = [
    "WINDOW",
    "KernelProbe",
    "ProbeFunction",
    "polynomial_probe",
    "gaussian_probe",
    "wavelet_grid",
    "partition_check",
    "project",
    "kernel_projection_error",
    "commutator_residual",
]

WINDOW = 24.0
_GAUSS_TAIL = 1e-12


@dataclass(frozen=True)
class KernelProbe:
    """Grid context: basis order, scale under test, and grid level."""

    order: int
    scale: int
    grid_level: int = 12

    def __post_init__(self):
        make_filters(self.order)  # validates the order range
        if self.scale < 0:
            raise IndexRangeError("scale must be nonnegative", scale=self.scale)
        if self.grid_level > MAX_LEVEL:
            raise IndexRangeError(f"grid level must be at most {MAX_LEVEL}",
                                  grid_level=self.grid_level)
        if self.grid_level < self.scale + 4:
            raise InsufficientResolutionError(
                f"grid level {self.grid_level} cannot resolve scale "
                f"{self.scale}; need level >= scale + 4"
            )

    @property
    def spacing(self):
        return 2.0 ** -self.grid_level

    @property
    def margin(self):
        # seam buffer: 2(2K-1) lattice units at the scale under test
        return 2.0 * (2 * self.order - 1) * 2.0 ** -self.scale

    def grid(self):
        n = int(WINDOW) << self.grid_level
        return np.arange(n) * self.spacing


@dataclass(frozen=True)
class ProbeFunction:
    family: str
    label: str
    fn: Callable

    def __call__(self, x):
        return self.fn(x)


def polynomial_probe(degree: int) -> ProbeFunction:
    if degree < 0:
        raise IndexRangeError("polynomial degree must be >= 0", degree=degree)
    return ProbeFunction("polynomial", f"poly:{degree}", lambda x: x**degree)


def gaussian_probe(center: float = 12.0, width: float = 1.0) -> ProbeFunction:
    if not (np.isfinite(center) and np.isfinite(width)):
        raise WindowingError("gaussian center and width must be finite",
                             center=center, width=width)
    if width <= 0:
        raise WindowingError("gaussian width must be positive", width=width)
    return ProbeFunction(
        "gaussian",
        f"gauss:{center},{width}",
        lambda x: np.exp(-((x - center) ** 2) / (2.0 * width**2)),
    )


def _probe_values(probe, f):
    x = probe.grid()
    if isinstance(f, np.ndarray):
        if f.shape != x.shape:
            raise ShapeError("grid array length mismatch",
                             got=f.shape, want=x.shape)
        return np.asarray(f, dtype=np.float64)
    fx = np.asarray(f(x), dtype=np.float64)
    if fx.shape != x.shape:
        raise ShapeError("test function must map the grid pointwise")
    if isinstance(f, ProbeFunction) and f.family == "gaussian":
        m = probe.margin
        if 2.0 * m >= WINDOW:
            raise WindowingError("margins swallow the whole window",
                                 margin=m, window=WINDOW)
        strip = (x < m) | (x > WINDOW - m)
        peak = np.abs(fx).max()
        if peak > 0 and np.abs(fx[strip]).max() > _GAUSS_TAIL * peak:
            raise WindowingError(
                "gaussian tail reaches the seam buffer",
                margin=m, label=f.label,
            )
    return fx


def _translates(probe):
    """Yield (grid start a, grid stop b, segment) per buffered translate.

    The segment is 2^{k/2} s(2^k x - n) sampled on the grid slice [a, b).
    """
    jj = probe.grid_level - probe.scale
    seg = scaling_samples(probe.order, jj).values * 2.0 ** (probe.scale / 2.0)
    ngrid = int(WINDOW) << probe.grid_level
    n_lo = -(2 * probe.order - 2)
    n_hi = (int(WINDOW) << probe.scale) - 1
    for n in range(n_lo, n_hi + 1):
        i0 = n << jj
        a, b = max(i0, 0), min(i0 + len(seg), ngrid)
        if a < b:
            yield a, b, seg[a - i0 : b - i0]


def _interior(probe):
    x = probe.grid()
    m = probe.margin
    return (x >= m) & (x <= WINDOW - m)


def partition_check(probe: KernelProbe) -> float:
    """Max grid deviation of 2^{-k/2} sum_n s^k_n(x) from 1."""
    acc = np.zeros(int(WINDOW) << probe.grid_level)
    fac = 2.0 ** (-probe.scale / 2.0)
    for a, b, seg in _translates(probe):
        acc[a:b] += fac * seg
    return float(np.abs(acc - 1.0).max())


def project(probe: KernelProbe, f) -> np.ndarray:
    """Grid samples of P_k f with level-j quadrature coefficients.

    Each coefficient is a numpy sum of products, not a BLAS dot, so the
    samples do not depend on the BLAS thread count.  Samples of f or of
    P_k f past the float range raise index.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        fx = _probe_values(probe, f)
        recon = _projection(probe, fx)
    return _finite(probe, _label(f), recon, fx)


def _projection(probe, fx):
    """P_k of the grid samples fx; project without the range check."""
    dx = probe.spacing
    recon = np.zeros_like(fx)
    for a, b, seg in _translates(probe):
        c = (seg * fx[a:b]).sum() * dx
        recon[a:b] += c * seg
    return recon


def _label(f):
    return getattr(f, "label", "grid array")


def _finite(probe, label, value, *samples):
    """value, unless it or any sample array holds an inf or a nan, which
    raises index: the probe went past the float range at this scale."""
    if not all(np.isfinite(x).all() for x in (value, *samples)):
        raise IndexRangeError("probe goes past the float range",
                              function=label, scale=probe.scale)
    return value


def kernel_projection_error(probe: KernelProbe, f) -> float:
    """Interior L2 norm of P_k f - f.  Samples or a norm past the float
    range raise index."""
    with np.errstate(over="ignore", invalid="ignore"):
        fx = _probe_values(probe, f)
        diff = _projection(probe, fx) - fx
        mask = _interior(probe)
        err = float(np.sqrt((diff[mask] ** 2).sum() * probe.spacing))
    return _finite(probe, _label(f), err, fx)


def commutator_residual(probe: KernelProbe, f, g) -> float:
    """|<f, P_k g> - <f, g>| over the interior grid.

    This is the truncation error of the equal-time pairing: the smeared
    commutator carries K^k where the canonical one carries the delta.
    Both pairings are numpy sums of products, not BLAS dots, so the
    residual does not depend on the BLAS thread count.  Samples or a
    pairing past the float range raise index.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        fx = _probe_values(probe, f)
        gx = _probe_values(probe, g)
        pg = _projection(probe, gx)
        mask = _interior(probe)
        dx = probe.spacing
        kern = float((fx[mask] * pg[mask]).sum() * dx)
        direct = float((fx[mask] * gx[mask]).sum() * dx)
        res = abs(kern - direct)
    label = ",".join(dict.fromkeys((_label(f), _label(g))))
    return _finite(probe, label, res, fx, gx)


def wavelet_grid(probe: KernelProbe, shift: int) -> np.ndarray:
    """Grid samples of the scale-k wavelet w^k_shift, for annihilation probes."""
    jj = probe.grid_level - probe.scale
    seg = wavelet_samples(probe.order, jj).values * 2.0 ** (probe.scale / 2.0)
    ngrid = int(WINDOW) << probe.grid_level
    i0 = shift << jj
    if i0 < 0 or i0 + len(seg) > ngrid:
        raise IndexRangeError(
            "wavelet support leaves the window", shift=shift,
            scale=probe.scale,
        )
    out = np.zeros(ngrid)
    out[i0 : i0 + len(seg)] = seg
    return out

