"""Fast orthogonal wavelet transform on finite periodic signals.

One analysis step maps a length-N coefficient vector at scale k to a
coarse and a detail channel of length N/2 at scale k-1, via the filter
pair (h, g).  Periodization keeps the step exactly orthogonal, so the
multilevel pyramid preserves the Euclidean norm to rounding.  The same
step applied to the N x N identity is the stage matrix W that the
two-scale split of `flow` contracts the coefficient tensors with.  The
step forms its stride-2 windows a fixed block of output rows at a time,
straight from the input, so neither the whole window array nor the
periodic extension of a long signal exists.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DepthError, ShapeError
from .filters import FilterPair

__all__ = [
    "CoeffVector",
    "CoeffPyramid",
    "analysis_step",
    "synthesis_step",
    "max_levels",
    "multilevel",
    "stage_matrix",
]


@dataclass(frozen=True)
class CoeffVector:
    """Periodic coefficient vector at a single scale.

    Length must be a power of two.  The per-step lower bound (length at
    least 2K) is checked where the filter is known, i.e. in the step
    functions, so the short coarse vector at the top of a deep pyramid
    remains representable.  Values are held read-only: an array is taken
    uncopied only when it is float64 and its memory's owner is read-only
    too, so no view can write to it; any other array is copied.
    """

    scale: int
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        n = v.shape[0] if v.ndim == 1 else 0
        if v.ndim != 1 or n < 1 or (n & (n - 1)) != 0:
            raise ShapeError(
                "coefficient vector length must be a power of two",
                length=None if v.ndim != 1 else n,
            )
        owner = v if v.base is None else v.base
        if not isinstance(owner, np.ndarray) or owner.flags.writeable:
            v = v.copy()
            v.setflags(write=False)
        object.__setattr__(self, "values", v)

    def __len__(self):
        return len(self.values)


@dataclass(frozen=True)
class CoeffPyramid:
    """Multilevel decomposition: one coarse vector plus detail vectors,
    finest detail first, coarsest detail last."""

    coarse: CoeffVector
    details: tuple

    @property
    def levels(self):
        return len(self.details)

    def flatten(self):
        """Concatenate [coarse | detail_finest | ... | detail_coarsest]."""
        parts = [self.coarse.values] + [d.values for d in self.details]
        return np.concatenate(parts)


_STEP_ROWS = 2**13  # output rows of a step formed at a time; a power of two


def _step_products(x, fp: FilterPair):
    """Row m of (coarse, detail) sums h_l (g_l) x[(2m + l) mod n] along
    axis 0, l = 0..taps-1.  The stride-2 windows are copied to contiguous
    memory _STEP_ROWS output rows at a time, straight from x, and each
    block takes one product with h and one with g; only a block that
    reaches past the end of x joins its wrapped head on.  When the rows
    are one block or a whole number of them, as for every power-of-two
    length, each output has the bits of one product over all the
    windows; blocks of other sizes can move last bits."""
    n, taps = len(x), len(fp.h)
    m = n // 2
    coarse = np.empty((m,) + x.shape[1:])
    detail = np.empty_like(coarse)
    for start in range(0, m, _STEP_ROWS):
        end = min(start + _STEP_ROWS, m)
        stop = 2 * end + taps - 2  # one past the last input the block reads
        seg = (x[2 * start:stop] if stop <= n
               else np.concatenate([x[2 * start:], x[:stop - n]]))
        windows = np.ascontiguousarray(
            sliding_window_view(seg, taps, axis=0)[::2])
        coarse[start:end] = windows @ fp.h
        detail[start:end] = windows @ fp.g
        del windows  # before the next block's is made
    return coarse, detail


def analysis_step(v: CoeffVector, fp: FilterPair):
    """Split v into (coarse, detail) one scale down.

    coarse_m = sum_l h_l v_{(2m+l) mod N}, detail likewise with g.
    """
    n = len(v)
    if n < 2 * fp.order:
        raise ShapeError(
            "analysis step needs length >= 2K",
            length=n,
            order=fp.order,
        )
    coarse, detail = _step_products(v.values, fp)
    for a in (coarse, detail):
        a.setflags(write=False)  # so the vectors take them without a copy
    return CoeffVector(v.scale - 1, coarse), CoeffVector(v.scale - 1, detail)


def stage_matrix(fp: FilterPair, n: int) -> np.ndarray:
    """Analysis step as an N x N orthogonal matrix: the step applied to
    the identity.  Rows 0..N/2-1 are the h (coarse) rows, rows N/2..N-1
    the g (detail) rows, with periodic wrapping of the column index."""
    if n < 2 * fp.order or n % 2:
        raise ShapeError("stage needs even N >= 2K", n=n, order=fp.order)
    return np.concatenate(_step_products(np.eye(n), fp))


def synthesis_step(coarse: CoeffVector, detail: CoeffVector, fp: FilterPair):
    """Exact inverse of analysis_step (adjoint of an orthogonal map)."""
    if len(coarse) != len(detail):
        raise ShapeError(
            "coarse/detail length mismatch",
            coarse=len(coarse),
            detail=len(detail),
        )
    if coarse.scale != detail.scale:
        raise ShapeError(
            "coarse/detail scale mismatch",
            coarse=coarse.scale,
            detail=detail.scale,
        )
    m = len(coarse)
    n = 2 * m
    if n < 2 * fp.order:
        raise ShapeError(
            "synthesis step would produce length < 2K",
            length=n,
            order=fp.order,
        )
    # Output j sums f_l v_m over the rows m with (2m + l) mod n = j, coarse
    # terms (f = h) before detail terms (f = g), each in ascending m from
    # 0.0.  A row gives j at most one term, and ascending m is descending
    # l, first over the rows where 2m + l < n, then over the last l // 2
    # rows, whose terms wrap to 2m + l - n.  Adding one whole tap at a time
    # in that order gives every sum bit for bit, with no index arrays; a
    # tap's products go through one reused buffer of _STEP_ROWS at a time.
    out, prod = np.zeros(n), np.empty(min(m, _STEP_ROWS))
    for f, v in ((fp.h, coarse.values), (fp.g, detail.values)):
        for l in reversed(range(len(f))):
            for s in range(0, m - l // 2, len(prod)):
                e = min(s + len(prod), m - l // 2)
                out[l::2][s:e] += np.multiply(v[s:e], f[l], out=prod[:e - s])
        for l in reversed(range(len(f))):
            out[l % 2::2][:l // 2] += f[l] * v[m - l // 2:]
    out.setflags(write=False)
    return CoeffVector(coarse.scale + 1, out)


def max_levels(length: int, order: int) -> int:
    """Deepest admissible pyramid: every analysis step must see an input
    of length >= 2K, i.e. length / 2^(levels-1) >= 2K."""
    lv = 0
    while length >= 2 * order:
        lv += 1
        length //= 2
    return lv


def multilevel(data, fp: FilterPair, levels: int, direction: str = "forward"):
    """Repeated analysis of the coarse channel (forward) or its inverse.

    forward: CoeffVector -> CoeffPyramid with `levels` detail vectors.
    inverse: CoeffPyramid -> CoeffVector; `levels` must match the pyramid.
    """
    if direction == "forward":
        v, data = data, None  # the caller's input is freed once stepped
        if not isinstance(v, CoeffVector):
            raise ShapeError("forward multilevel expects a CoeffVector")
        if levels < 0 or levels > max_levels(len(v), fp.order):
            raise DepthError(
                "levels out of range for this length and order",
                levels=levels,
                max_levels=max_levels(len(v), fp.order),
            )
        details = []
        for _ in range(levels):
            v, d = analysis_step(v, fp)
            details.append(d)
        return CoeffPyramid(v, tuple(details))
    if direction == "inverse":
        p = data
        if not isinstance(p, CoeffPyramid):
            raise ShapeError("inverse multilevel expects a CoeffPyramid")
        if levels != p.levels:
            raise DepthError(
                "pyramid depth mismatch", levels=levels, pyramid=p.levels
            )
        v = p.coarse
        for d in reversed(p.details):
            v = synthesis_step(v, d, fp)
        return v
    raise ShapeError("direction must be forward or inverse", direction=direction)
