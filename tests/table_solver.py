"""The dense fixed-point solver behind the connection tables that
wavefield ships in src/wavefield/tables/: the script that regenerates
them, and the tests' oracle for them.

Substituting the refinement equation into an overlap integral turns each
table into the eigenvalue-1 fixed point of a finite linear map.  One
engine builds every table: _bordered_system writes the m-factor
refinement map A, less the identity, into one dense array with the
inhomogeneous normalization row below it; D's map is the m=2 map times 4
(the chain rule puts a factor 2 on each differentiated factor).
_solve_bordered solves that bordered system with np.linalg.lstsq, which
copies it, so a solve peaks near twice the system.  An order whose
system would exceed _MAX_SYSTEM_BYTES (gamma-4 from order 8) is refused
before anything is allocated.

Run as a script, it solves every scale-0 table the solver admits and
writes each over its shipped file through save_tensor, a gamma-4 table
checked against its gamma-3 partner:

    OPENBLAS_NUM_THREADS=2 PYTHONPATH=src python tests/table_solver.py

The shipped files were written this way at two OpenBLAS threads, and
`git status` then shows no change. The last bits of a dgelsd solve move
with the thread count, by up to 3.8e-15 between one and two threads, so
other thread counts rewrite some files in their last digits. On a 2-core
host the whole run takes about 130 s, most of it gamma-4 at order 7,
whose bordered system alone is 490 MB; the run peaks near 1.1 GB of RSS.
"""

from __future__ import annotations

import itertools
import os
import tempfile

import numpy as np

from wavefield.connection import (
    _KINDS,
    CoeffTensor,
    _table_path,
    tensor_text,
    validate_tensor,
)
from wavefield.errors import (
    ConvergenceFailureError,
    CorruptTableError,
    UnsupportedOrderError,
    WavefieldError,
)
from wavefield.filters import K_MAX, make_filters

# the bordered fixed-point system of one table may take at most this many
# bytes (gamma-4 at order 7 takes 490 MB, at order 8 1.19 GB)
_MAX_SYSTEM_BYTES = 512 * 2**20


class DegenerateFixedPointError(WavefieldError):
    name = "degenerate-fixed-point"


def _admissible_offsets(radius, m):
    """All offset tuples with every |n_i| <= radius and every pairwise
    |n_i - n_j| <= radius (supports of all m factors must meet)."""
    rng = range(-radius, radius + 1)
    out = []
    for tup in itertools.product(rng, repeat=m - 1):
        ok = all(abs(a - b) <= radius for a, b in itertools.combinations(tup, 2))
        if ok:
            out.append(tup)
    return out


def _bordered_system(kind, order):
    """The bordered fixed-point system of one table kind.

    Returns B, an (nt+1) x nt array holding A - I above the normalization
    row, the right-hand side (zeros, then the normalization value) and
    the offset tuples in row order.  Row n of the refinement map A is
    w sum_{l1..lm} h_{l1}..h_{lm} x at the child tuple (2 n_i + l_{i+1} - l_1),
    with w = 2^{(m-2)/2} for gamma-m and w = 4 for D, the m=2 map (the
    chain rule puts a factor 2 on each differentiated factor; a power of
    two, so folding it into w equals scaling the summed map).  D's
    normalization row is n^2 with value -2, gamma-m's the full sum with
    value 1.

    A is filled one l_1 at a time, in ascending l_1: for one l_1 the
    children of a row are distinct, so no (row, col) pair repeats within
    one fill and each entry sums its terms in a fixed order.  Raises
    unsupported-order before allocating when B would exceed
    _MAX_SYSTEM_BYTES.
    """
    m = _KINDS[kind]
    radius = 2 * order - 2
    offsets = _admissible_offsets(radius, m)
    nt = len(offsets)
    nbytes = (nt + 1) * nt * 8
    if nbytes > _MAX_SYSTEM_BYTES:
        raise UnsupportedOrderError(
            "bordered fixed-point system exceeds the memory limit",
            kind=kind, order=order, unknowns=nt, bytes=nbytes,
        )
    h = make_filters(order).h
    taps, width = len(h), m - 1
    pref = 4.0 if kind == "derivative-D" else 2.0 ** ((m - 2) / 2.0)

    # every child component 2 n_i + l - l_1 lies within +-reach; lut maps
    # a child's flat index to its row, or to -1 outside the offset set
    off_arr = np.array(offsets, dtype=np.int64)
    reach = 2 * radius + taps - 1
    side = 2 * reach + 1
    strides = side ** np.arange(width - 1, -1, -1, dtype=np.int64)
    lut = np.full(side**width, -1, dtype=np.int64)
    lut[(off_arr + reach) @ strides] = np.arange(nt)
    base = (2 * off_arr + reach) @ strides

    lgrids = np.meshgrid(*([np.arange(taps)] * width), indexing="ij")
    lcombo = np.stack([g.ravel() for g in lgrids], axis=1)
    hprod = np.prod(h[lcombo], axis=1)
    shift = lcombo @ strides
    l1_step = int(strides.sum())

    b = np.zeros((nt + 1, nt))
    for l1 in range(taps):
        cols = lut[base[:, None] + (shift - l1 * l1_step)]
        rows, j = np.nonzero(cols >= 0)
        b[rows, cols[rows, j]] += (pref * h[l1] * hprod)[j]
    diag = np.arange(nt)
    b[diag, diag] -= 1.0
    rhs = np.zeros(nt + 1)
    if kind == "derivative-D":
        b[nt] = off_arr[:, 0].astype(float) ** 2
        rhs[nt] = -2.0
    else:
        b[nt] = 1.0
        rhs[nt] = 1.0
    return b, rhs, offsets


def _solve_bordered(b, rhs, what):
    """Least-squares solution of the bordered system B x = rhs.

    Least squares keeps the solve robust near degeneracy; an eigenvalue-1
    multiplicity above one leaves the bordered matrix rank-deficient,
    which shows up as a vanishing smallest singular value.  An SVD that
    does not converge (a NaN in B, say) raises convergence-failure.
    """
    try:
        x, _, _, sv = np.linalg.lstsq(b, rhs, rcond=None)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailureError(
            "least-squares SVD did not converge", system=what
        ) from exc
    if sv[-1] < 1e-8 * max(1.0, sv[0]):
        raise DegenerateFixedPointError(
            "eigenvalue-1 fixed point is not unique",
            system=what,
            smallest_singular_value=float(sv[-1]),
        )
    resid = float(np.abs(b @ x - rhs).max())
    if resid > 1e-10:
        raise DegenerateFixedPointError(
            "bordered fixed-point system is inconsistent",
            system=what,
            residual=resid,
        )
    return x


def solve_table(kind, order):
    """Scale-0 table of one kind: the fixed point of its refinement map."""
    b, rhs, offsets = _bordered_system(kind, order)
    x = _solve_bordered(b, rhs, kind)
    entries = {tup: float(v) for tup, v in zip(offsets, x)}
    return CoeffTensor(kind, order, 0, entries)


def save_tensor(t, path, gamma3=None):
    """Validate t, then write its tensor_text atomically (temp + rename).

    gamma3 is passed on to validate_tensor, which then also checks a
    gamma-4 table against the four-point partition rule.
    """
    validate_tensor(t, gamma3)
    path = os.fspath(path)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".", prefix=".tensor-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(tensor_text(t))
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def main():
    """Write every table the solver admits over its shipped file; print
    one line per (kind, order)."""
    gamma3 = {}
    for kind in ("derivative-D", "gamma-3", "gamma-4"):
        for order in range(3 if kind == "derivative-D" else 1, K_MAX + 1):
            try:
                t = solve_table(kind, order)
                if kind == "gamma-3":
                    gamma3[order] = t
                save_tensor(t, _table_path(kind, order),
                            gamma3.get(order) if kind == "gamma-4" else None)
            except (UnsupportedOrderError, CorruptTableError) as exc:
                print(f"{kind} K={order}: refused, {exc}")
            else:
                print(f"{kind} K={order}: {len(t.entries)} entries")


if __name__ == "__main__":
    main()
