"""The dense fixed-point solver behind the connection tables that
wavefield ships in src/wavefield/tables/: the script that regenerates
them, and the tests' oracle for them.

Substituting the refinement equation into an overlap integral turns each
table into the eigenvalue-1 fixed point of a finite linear map.  One
engine builds every table: _bordered_system writes the m-factor
refinement map A, less the identity, straight into one preallocated
column-major array with the inhomogeneous normalization row below it;
D's map is the m=2 map times 4 (the chain rule puts a factor 2 on each
differentiated factor).  _solve_bordered solves that bordered system by
least squares, with LAPACK working on the array itself, so the solve
peaks near one system, not two; the residual check re-applies the map's
terms to the solution.  An order whose system would exceed
_MAX_SYSTEM_BYTES (gamma-4 from order 8) is refused before anything is
allocated.

Run as a script, it solves every scale-0 table the solver admits and
writes each over its shipped file through save_tensor, a gamma-4 table
checked against its gamma-3 partner:

    OPENBLAS_NUM_THREADS=2 PYTHONPATH=src python tests/table_solver.py

The shipped files were written this way at two OpenBLAS threads, and
`git status` then shows no change. The last bits of a dgelsd solve move
with the thread count, by up to 3.8e-15 between one and two threads, so
other thread counts rewrite some files in their last digits. On a 2-core
host the whole run takes about 2 minutes, 100 s of it gamma-4 at order 7,
whose bordered system alone is 490 MB.
"""

from __future__ import annotations

import itertools

import numpy as np
from numpy.linalg import lapack_lite

from wavefield.connection import (
    _KINDS,
    CoeffTensor,
    _table_path,
    save_tensor,
)
from wavefield.errors import (
    ConvergenceFailureError,
    CorruptTableError,
    DegenerateFixedPointError,
    UnsupportedOrderError,
)
from wavefield.filters import K_MAX, make_filters

# the bordered fixed-point system of one table may take at most this many
# bytes (gamma-4 at order 7 takes 490 MB, at order 8 1.19 GB); a system is
# solved in place, so the solve peaks near this
_MAX_SYSTEM_BYTES = 512 * 2**20

# elements per row chunk of the refinement-map assembly
_CHUNK = 1 << 16


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


def _map_terms(base, shift, lut, l1_step, weights):
    """Yield the refinement map as (rows, cols, w), a row chunk and an l_1
    at a time: row rows[i] adds w[j] times x at column cols[i, j].

    Row r's children for one l_1 sit at flat offset base[r] + shift -
    l_1 * l1_step in the tuple -> row lookup table lut; a child outside
    the offset set reads -1 there and stays in cols as -1.  weights[l_1]
    holds the weight of every shift for that l_1.  For one l_1 the
    children of a row are distinct, so no (row, col) pair repeats within
    one yield, and the chunks keep every temporary below _CHUNK elements.
    """
    nt = len(base)
    step = max(1, _CHUNK // len(shift))
    for lo in range(0, nt, step):
        rows = np.arange(lo, min(lo + step, nt))
        child = base[rows, None] + shift
        for l1, w in enumerate(weights):
            yield rows, lut[child - l1 * l1_step], w


def _bordered_system(kind, order):
    """The bordered fixed-point system of one table kind, built in place.

    Returns B, an (nt+1) x nt column-major array holding A - I above the
    normalization row, the right-hand side (zeros, then the normalization
    value), the offset tuples in row order and a function giving
    max |B x - rhs| without reading B.  Row n of the refinement map A is
    w sum_{l1..lm} h_{l1}..h_{lm} x at the child tuple (2 n_i + l_{i+1} - l_1),
    with w = 2^{(m-2)/2} for gamma-m and w = 4 for D, the m=2 map (the
    chain rule puts a factor 2 on each differentiated factor; a power of
    two, so folding it into w equals scaling the summed map).  D's
    normalization row is n^2 with value -2, gamma-m's the full sum with
    value 1.

    _map_terms gives the entries, so no temporary grows with nt^2; each
    l_1 adds at most once to any entry, in ascending l_1.  The residual
    applies the same terms to x, so it holds after LAPACK has overwritten
    B.  Raises unsupported-order before allocating when B would exceed
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

    # every child component 2 n_i + l - l_1 lies within +-reach
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
    weights = [pref * h[l1] * hprod for l1 in range(taps)]

    def terms():
        return _map_terms(base, shift, lut, l1_step, weights)

    # column-major: entry (row, col) sits at col * (nt + 1) + row
    b = np.zeros((nt + 1, nt), order="F")
    flat = b.T.reshape(-1)
    for rows, cols, w in terms():
        keep = cols >= 0
        rows = np.broadcast_to(rows[:, None], cols.shape)[keep]
        flat[cols[keep] * (nt + 1) + rows] += np.broadcast_to(w, cols.shape)[keep]
    flat[: nt * (nt + 1) : nt + 2] -= 1.0
    rhs = np.zeros(nt + 1)
    if kind == "derivative-D":
        b[nt] = np.array(offsets, dtype=float)[:, 0] ** 2
        rhs[nt] = -2.0
    else:
        b[nt] = 1.0
        rhs[nt] = 1.0
    norm = b[nt].copy()

    def residual(x):
        ax = np.zeros(nt)
        xz = np.append(x, 0.0)  # a child outside the set (-1) reads 0
        for rows, cols, w in terms():
            ax[rows] += xz[cols] @ w
        return max(float(np.abs(ax - x).max()), abs(float(norm @ x) - rhs[nt]))

    return b, rhs, offsets, residual


def _lstsq_in_place(b, rhs, what):
    """x and the singular values of min |B x - rhs|, solved on B itself.

    LAPACK's dgelsd through numpy.linalg.lapack_lite, with the arguments
    np.linalg.lstsq passes to the same routine (lda = m, ldb = max(m, n),
    rcond = eps max(m, n), one workspace query), so both results carry
    lstsq's bits; but a column-major B is solved where it lies, where
    lstsq copies it first.  B is overwritten; rhs is not.  A solve that
    LAPACK reports as failed raises convergence-failure.
    """
    m, n = b.shape
    ldb = max(m, n)
    # lapack_lite checks dtype and C order but no size: every buffer is
    # sized here; the C-contiguous transpose of a column-major B is
    # LAPACK's A, lda = m
    a = np.require(b, dtype=float, requirements=("F", "A", "W")).T
    sol = np.zeros(ldb)
    sol[:m] = rhs
    sv = np.zeros(min(m, n))
    rcond = np.finfo(float).eps * ldb
    # lapack_lite accepts iwork only as C int, while the ILP64 LAPACK in
    # numpy's wheels writes 64-bit integers to it: the buffer holds twice
    # the length asked for, and the query's answer is read as int64 (the
    # same value from a 32-bit LAPACK, which leaves the high half zero)
    work, iwork = np.zeros(1), np.zeros(2, dtype=np.intc)
    lapack_lite.dgelsd(m, n, 1, a, m, sol, ldb, sv, rcond, 0, work, -1, iwork, 0)
    lwork, liwork = int(work[0]), int(iwork.view(np.int64)[0])
    work, iwork = np.zeros(lwork), np.zeros(2 * liwork, dtype=np.intc)
    info = lapack_lite.dgelsd(m, n, 1, a, m, sol, ldb, sv, rcond, 0,
                              work, lwork, iwork, 0)["info"]
    # info > 0: the SVD did not converge; a NaN in B can also come back
    # as a nested routine's negative info (DLASCL's, at n = 2), so every
    # nonzero info is a failed solve, as in lstsq
    if info != 0:
        raise ConvergenceFailureError(
            "least-squares SVD did not converge", system=what, info=info
        )
    return sol[:n], sv


def _solve_bordered(b, rhs, what, residual):
    """Least-squares solution of the bordered system B x = rhs, in place.

    Least squares keeps the solve robust near degeneracy; an eigenvalue-1
    multiplicity above one leaves the bordered matrix rank-deficient,
    which shows up as a vanishing smallest singular value.  The solve
    overwrites B, so residual(x) reports max |B x - rhs| without it.
    """
    x, sv = _lstsq_in_place(b, rhs, what)
    if sv[-1] < 1e-8 * max(1.0, sv[0]):
        raise DegenerateFixedPointError(
            "eigenvalue-1 fixed point is not unique",
            system=what,
            smallest_singular_value=float(sv[-1]),
        )
    resid = residual(x)
    if resid > 1e-10:
        raise DegenerateFixedPointError(
            "bordered fixed-point system is inconsistent",
            system=what,
            residual=float(resid),
        )
    return x


def solve_table(kind, order):
    """Scale-0 table of one kind: the fixed point of its refinement map."""
    b, rhs, offsets, residual = _bordered_system(kind, order)
    x = _solve_bordered(b, rhs, kind, residual)
    entries = {tup: float(v) for tup, v in zip(offsets, x)}
    return CoeffTensor(kind, order, 0, entries)


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
