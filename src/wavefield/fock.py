"""Truncated normal-ordered phi^4 Hamiltonian on a periodic mode lattice.

Field and momentum at each retained translation n are expressed through
ladder operators of frequency gamma,

    Phi_n = (a_n + a_n^+) / sqrt(2 gamma)
    Pi_n  = i sqrt(gamma/2) (a_n^+ - a_n),

and every Hamiltonian monomial is normal ordered with respect to the
gamma-vacuum: expand in ladder operators, keep the creation-left
orderings, drop all contraction terms.  That makes <vac|H|vac> = 0 a
structural identity, not a numerical one.

Assembly collects ladder monomials into aggregated (creators,
annihilators) terms; the quartic part is one array pass over every
(site, offset, split) row, its weights summed per term in row order.
Each term acts only on the box of occupation states where it is nonzero
and stays under the cutoff, with sources in ascending order.  Of a key
and its conjugate only one is applied, and the matrix is built one
diagonal at a time.  A term keeps to one diagonal, so a stable sort per
diagonal sums the entries in term order, which fixes every value bit
for bit; a diagonal of one term, whose sources already ascend, needs no
sort.  H is real symmetric, so only its diagonal (a dense vector) and
its strict upper triangle (CSR arrays) are stored: each diagonal pair s
and -s is added into one vector whose values fill the upper diagonal s,
and the lower triangle, its exact mirror, is never written.  A first
pass over the upper diagonals counts the positions each row receives,
so the CSR arrays are allocated once; a second pass sums each diagonal
pair and writes it straight to its slots, columns in order with no
sort.  A sum of exactly zero is not stored, just as a term with a zero
coefficient is never applied.

FockOperator holds only that half form.  One numpy pass expands it,
copying every value, for the stored entries, the dense eigensolve and
FockOperator.matrix.  Only that matrix and ARPACK (dimension > 128) load
scipy: ARPACK's CSR and CSC kernels multiply by the half form, adding
each row's entries in ascending column from zero as scipy does over a
full row, so every ARPACK iterate is the full matrix's bit for bit.

The volume truncation wraps tensor offsets modulo the mode count.  The
wrapped sums are well defined for any N >= 1; for N < 2K distinct
offsets alias onto the same entry, which is exactly what restricting a
periodic lattice below the filter support means.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .connection import CoeffTensor, wrap_matrix, wrap_tensor_dense
from .errors import (
    ConvergenceFailureError,
    IndexRangeError,
    OrderMismatchError,
    ScaleMismatchError,
    ShapeError,
    TachyonicConfigurationError,
)

if TYPE_CHECKING:
    import scipy.sparse

_START_SEED = 7  # seeds the iterative eigensolver's start vector

# a basis's int64 state grid may take at most this many bytes
_MAX_SYSTEM_BYTES = 512 * 2**20

__all__ = [
    "ModelParams",
    "FockBasis",
    "FockOperator",
    "build_phi4_hamiltonian",
    "free_reference_spectrum",
    "lanczos_lowest",
    "block_leakage_counts",
]


@dataclass(frozen=True)
class ModelParams:
    mass_squared: float
    coupling: float
    gamma: float = 0.0  # 0 requests the default sqrt(mass_squared)

    def __post_init__(self):
        for name in ("mass_squared", "coupling", "gamma"):
            if not np.isfinite(getattr(self, name)):
                raise ShapeError(f"{name} must be finite",
                                 **{name: getattr(self, name)})
        g = self.gamma
        if g == 0.0:
            if self.mass_squared <= 0:
                raise ShapeError(
                    "default gamma needs mass_squared > 0",
                    mass_squared=self.mass_squared,
                )
            g = float(np.sqrt(self.mass_squared))
            object.__setattr__(self, "gamma", g)
        if g <= 0:
            raise ShapeError("gamma must be positive", gamma=g)


@lru_cache(maxsize=16)
def _occupations(modes, cutoff):
    dim = (cutoff + 1) ** modes
    idx = np.arange(dim, dtype=np.int64)
    occ = np.empty((dim, modes), dtype=np.int64)
    for j in range(modes):
        occ[:, j] = (idx // (cutoff + 1) ** j) % (cutoff + 1)
    occ.setflags(write=False)
    return occ


@dataclass(frozen=True)
class FockBasis:
    """Occupation-number basis, lexicographic with mode 0 fastest.  A basis
    whose int64 state grid would pass _MAX_SYSTEM_BYTES is refused."""

    modes: int
    cutoff: int

    def __post_init__(self):
        if self.modes < 1 or self.cutoff < 1:
            raise ShapeError(
                "need modes >= 1 and cutoff >= 1",
                modes=self.modes,
                cutoff=self.cutoff,
            )
        nbytes = 8 * self.dimension
        if nbytes > _MAX_SYSTEM_BYTES:
            raise ShapeError("Fock state grid exceeds the memory limit",
                             modes=self.modes, cutoff=self.cutoff,
                             dimension=self.dimension, bytes=nbytes)

    @property
    def dimension(self):
        return (self.cutoff + 1) ** self.modes

    @property
    def strides(self):
        return (self.cutoff + 1) ** np.arange(self.modes, dtype=np.int64)

    def occupations(self):
        """(dimension, modes) table; row i is the occupation vector of i."""
        return _occupations(self.modes, self.cutoff)

    def index_of(self, occ):
        occ = np.asarray(occ, dtype=np.int64)
        if occ.shape != (self.modes,) or occ.min() < 0 or occ.max() > self.cutoff:
            raise IndexRangeError("occupation vector out of range")
        return int(occ @ self.strides)


class _Half(NamedTuple):
    """A real symmetric matrix as its diagonal, a dense vector holding
    +0.0 where nothing is stored, and the CSR arrays of its strict upper
    triangle (one index type for indices and indptr)."""

    diagonal: np.ndarray
    data: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray


class FockOperator:
    """A real symmetric operator on a Fock basis, such as the Hamiltonian,
    held as its half form: the diagonal and the strict upper triangle."""

    __slots__ = ("basis", "half")

    def __init__(self, basis: FockBasis, half: _Half):
        self.basis, self.half = basis, half

    @property
    def matrix(self) -> scipy.sparse.csr_matrix:
        """The full scipy CSR matrix, built on each access.  Outside the
        tests only bench/spans.py reads it: the fock.assemble span counts
        its shape and nnz."""
        import scipy.sparse as sp

        dim = self.basis.dimension
        return sp.csr_matrix(_expand(self.half), shape=(dim, dim))

    def entries(self):
        """Row, column and value arrays of every stored entry, row by row
        with the columns ascending."""
        return _entries(self.half)


def _rows_of(indptr):
    """The row of each entry of a CSR matrix, in the index type of indptr."""
    return np.repeat(np.arange(len(indptr) - 1, dtype=indptr.dtype), np.diff(indptr))


def _entries(half):
    """Row, column and value arrays of the full matrix's stored entries,
    row by row with the columns ascending."""
    data, indices, indptr = _expand(half)
    return _rows_of(indptr), indices, data


def _expand(half):
    """The CSR arrays (data, indices, indptr) of the full matrix of a half
    form.  Row r holds its lower entries, the upper entries of column r by
    ascending row, then its diagonal entry when nonzero, then its upper
    entries; each part fills its slots of the row in order.  Every value
    is copied, never summed, so it keeps its bits."""
    diag, data, indices, indptr = half
    dim, n = len(diag), len(data)
    # the upper entries by column, ties in stored order: the sorted keys
    # column << shift | position, whose low bits are the positions
    shift = max(n - 1, 0).bit_length()
    order = indices.astype(np.int64)
    order <<= shift
    order |= np.arange(n)
    order.sort()
    lower = np.diff(np.searchsorted(order, np.arange(dim + 1) << shift))
    order &= (1 << shift) - 1
    on = diag != 0.0
    parts = np.stack([lower, on, np.diff(indptr)], axis=1)
    nnz = 2 * n + int(on.sum())
    index = _index_dtype(max(dim, nnz))
    full_ptr = np.zeros(dim + 1, index)
    np.cumsum(parts.sum(axis=1), out=full_ptr[1:])
    # the part each slot of the full rows holds: 0 lower, 1 diagonal, 2 upper
    part = np.repeat(np.tile(np.arange(3, dtype=np.int8), dim), parts.ravel())
    full_data, full_indices = np.empty(nnz), np.empty(nnz, index)
    slots = part == 0
    full_data[slots] = data[order]
    full_indices[slots] = _rows_of(indptr)[order]
    slots = part == 1
    full_data[slots] = diag[on]
    full_indices[slots] = np.flatnonzero(on)
    slots = part == 2
    full_data[slots] = data
    full_indices[slots] = indices
    return full_data, full_indices, full_ptr


@lru_cache(maxsize=16)
def _state_grid(modes, cutoff):
    """Basis indices with one axis per mode; axis modes-1-j holds mode j,
    so C order runs mode 0 fastest."""
    grid = np.arange((cutoff + 1) ** modes, dtype=np.int64).reshape((cutoff + 1,) * modes)
    grid.setflags(write=False)
    return grid


def _apply_term(basis, creators, annihilators):
    """Action of prod a^+_{creators} prod a_{annihilators} on the basis.

    Returns (src, shift, amp): the operator maps source state src to
    target src + shift with amplitude amp, over the basis states where
    the amplitude is nonzero and the target stays under the cutoff.
    Those states form a box, a_j <= occ_j <= cutoff - max(0, c_j - a_j)
    with a_j and c_j the counts of mode j among the annihilators and the
    creators.  src is that box of the state grid, a view with one axis
    per mode, so in C order the sources ascend with mode 0 fastest; amp
    broadcasts against it.  The sqrt factors multiply in operator order,
    annihilators first.
    """
    modes, cutoff = basis.modes, basis.cutoff
    box = [slice(None)] * modes
    low = {}
    for j in set(creators + annihilators):
        a, c = annihilators.count(j), creators.count(j)
        top = cutoff - max(0, c - a)
        if top < a:
            return np.empty(0, np.int64), 0, 1.0
        box[modes - 1 - j] = slice(a, top + 1)
        low[j] = a
    src = _state_grid(modes, cutoff)[tuple(box)]
    roots = np.sqrt(np.arange(cutoff + 1))
    # level[j] counts the net ladder steps applied to mode j so far; factor(j)
    # is the sqrt of mode j's current occupation along its axis of the box
    level = dict.fromkeys(low, 0)

    def factor(j):
        first = low[j] + level[j]
        return roots[first:first + src.shape[modes - 1 - j]].reshape((-1,) + (1,) * j)

    amp = 1.0
    for j in annihilators:
        amp = amp * factor(j)
        level[j] -= 1
    for j in creators:
        level[j] += 1
        amp = amp * factor(j)
    shift = sum((cutoff + 1) ** j for j in creators) - sum((cutoff + 1) ** j for j in annihilators)
    return src, shift, amp


def _quadratic_terms(w_mat, mass_squared, gamma, modes):
    """Aggregated ladder terms of 1/2 sum :Pi^2: + 1/2 sum (W + mu^2 I) :Phi Phi:."""
    terms = {}

    def add(creators, annihilators, coeff):
        key = (tuple(sorted(creators)), tuple(sorted(annihilators)))
        terms[key] = terms.get(key, 0.0) + coeff

    inv = 1.0 / (2.0 * gamma)
    for n in range(modes):
        # 1/2 :Pi_n^2: = (gamma/2) a+a - (gamma/4)(a+a+ + aa)
        add((n, n), (), -gamma / 4.0)
        add((), (n, n), -gamma / 4.0)
        add((n,), (n,), gamma / 2.0)
        cnn = 0.5 * (w_mat[n, n] + mass_squared)
        add((n, n), (), cnn * inv)
        add((), (n, n), cnn * inv)
        add((n,), (n,), 2.0 * cnn * inv)
    for m in range(modes):
        for n in range(m + 1, modes):
            # the ordered pairs (m,n) and (n,m) combine: 1/2 (W_mn + W_nm)
            c = 0.5 * (w_mat[m, n] + w_mat[n, m])
            if c == 0.0:
                continue
            add((m, n), (), c * inv)
            add((), (m, n), c * inv)
            add((m,), (n,), c * inv)
            add((n,), (m,), c * inv)
    return terms


def _quartic_terms(t_dense, coupling, gamma, modes, terms):
    """Fold lambda sum Gamma :Phi Phi Phi Phi: into the term table.

    Row (n, offset, split) of the expansion, in that loop order, hands the
    sites (n, n+o2, n+o3, n+o4) mod modes to sorted creators (the split's
    set bits) and sorted annihilators, with weight Gamma[offset] scaled.
    Weights add up per key in row order (np.add.at is a sequential fold)
    onto the value already in the table; new keys join the table in order
    of first occurrence.
    """
    nz = np.argwhere(t_dense != 0.0)
    if len(nz) == 0:
        return terms
    w = t_dense[tuple(nz.T)] * (coupling / (2.0 * gamma) ** 2)
    sites = np.empty((modes, len(nz), 4), np.int64)
    sites[..., 0] = np.arange(modes)[:, None]
    sites[..., 1:] = (sites[..., :1] + nz) % modes
    sites = sites.reshape(-1, 4)
    # ops[row, split] holds the sorted creators, then the sorted annihilators
    ops = np.empty((len(sites), 16, 4), np.int64)
    n_cr = np.empty(16, np.int64)
    for s in range(16):
        cr = [b for b in range(4) if s >> b & 1]
        an = [b for b in range(4) if not s >> b & 1]
        n_cr[s] = len(cr)
        ops[:, s, :len(cr)] = np.sort(sites[:, cr], axis=1)
        ops[:, s, len(cr):] = np.sort(sites[:, an], axis=1)
    ops = ops.reshape(-1, 4)
    n_cr = np.tile(n_cr, len(sites))
    code = n_cr
    for col in ops.T:
        code = code * modes + col
    _, first, inverse = np.unique(code, return_index=True, return_inverse=True)
    order = np.argsort(first)  # unique codes in order of first occurrence
    rows = first[order]
    keys = [(tuple(op[:c]), tuple(op[c:]))
            for op, c in zip(ops[rows].tolist(), n_cr[rows].tolist())]
    acc = np.array([terms.get(key, 0.0) for key in keys], dtype=np.float64)
    np.add.at(acc, np.argsort(order)[inverse], np.repeat(np.tile(w, modes), 16))
    for key, coeff in zip(keys, acc):
        terms[key] = coeff
    return terms


def _index_dtype(n):
    """The index type for values up to n, the one scipy would store: int32
    while it holds, which keeps the upper triangle's indices at 4 bytes."""
    return np.int32 if n <= np.iinfo(np.int32).max else np.int64


def _diagonal_sums(group):
    """One diagonal of S: the entries coeff * amp of a group of applied
    terms (coeff, src, amp) at columns src, summed per column in term
    order by a stable sort.  Returns (cols, sums), cols ascending.  A
    lone term whose sources ascend strictly, as _apply_term's do, is
    already in that form; one comparison checks it and skips the sort."""
    n = sum(src.size for _, src, _ in group)
    cols, vals = np.empty(n, np.int64), np.empty(n)
    at = 0
    for coeff, src, amp in group:
        block = slice(at, at + src.size)
        cols[block].reshape(src.shape)[...] = src
        np.multiply(coeff, amp, out=vals[block].reshape(src.shape))
        at += src.size
    if len(group) == 1 and (cols[1:] > cols[:-1]).all():
        return cols, vals
    order = np.argsort(cols, kind="stable")
    cols, vals = cols[order], vals[order]
    first = np.ones(n, bool)  # where a run of equal columns starts
    np.not_equal(cols[1:], cols[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    return cols[starts], np.add.reduceat(vals, starts)


def _symmetric_csr(terms, dim):
    """H = S + S^T - diag(S) in its half form: the diagonal and the CSR
    arrays of the strict upper triangle, with S the summed entries of the
    applied terms.  The lower triangle is never stored.

    terms lists (coeff, src, shift, amp), each an _apply_term result
    with its coefficient: entries coeff * amp at (src + shift, src), on
    the diagonal shift = row - col.  Equal positions only meet within one
    diagonal, so S is summed a diagonal at a time, in term order.  H on
    upper diagonal s > 0 is then S_s(c) + S_-s(c + s) at row c, column
    c + s: every value is the two-term sum a + b, or a lone a, so it keeps
    its bits, and the lower triangle is its exact mirror.

    The main diagonal is summed first, into its dense vector, so that
    its sort's temporaries are gone before the upper arrays exist.  Then
    two passes go over the upper diagonals by ascending s.  The first
    counts the positions each row receives from the sources, without
    computing a value, so data and indices are allocated once; a pair
    whose only term is one source array adds it to the counts directly,
    and any other marks its rows in a bool vector first.  The second sums
    each diagonal pair into a dense vector and writes its values at those
    positions straight to the next free slot of each row, so the columns
    come out ascending with no sort.  A sum of exactly zero (either sign)
    is not stored; on the diagonal it reads +0.0.  When a position's sum
    cancels, which the physical Hamiltonians never showed, one forward
    compaction drops it and the index type follows the count left.
    """
    groups = {}
    for coeff, src, shift, amp in terms:
        groups.setdefault(shift, []).append((coeff, src, amp))
    # the main diagonal first, so that its sort's temporaries are gone
    # before the upper arrays exist
    diag = np.zeros(dim)
    c, h = _diagonal_sums(groups.get(0, []))
    diag[c] = h
    diag[diag == 0.0] = 0.0  # a cancelled -0.0 reads +0.0, as unstored
    shifts = sorted({abs(shift) for shift in groups} - {0})
    count = np.zeros(dim, np.int64)  # upper positions per row
    for s in shifts:
        # the rows c < dim - s where H on diagonal s gets a sum: sources of
        # shift s, and those of shift -s moved by -s
        pair = [src for _, src, _ in groups.get(s, ())]
        pair += [src - s for _, src, _ in groups.get(-s, ())]
        if len(pair) == 1:
            count[pair[0]] += 1  # a repeated row still counts once
            continue
        written = np.zeros(dim - s, bool)
        for rows in pair:
            written[rows] = True
        count[:dim - s] += written
    nnz = int(count.sum())
    index = _index_dtype(max(dim, nnz))
    indptr = np.zeros(dim + 1, index)
    np.cumsum(count, out=indptr[1:])
    data, indices = np.empty(nnz), np.empty(nnz, index)
    head = indptr[:-1].astype(np.intp)  # the next free slot of each row
    for s in shifts:
        v, written = np.zeros(dim - s), np.zeros(dim - s, bool)
        c, h = _diagonal_sums(groups.get(s, []))
        v[c], written[c] = h, True
        c, h = _diagonal_sums(groups.get(-s, []))
        c -= s
        v[c] += h
        written[c] = True
        c = np.flatnonzero(written)
        at = head[c]
        head[c] = at + 1
        data[at], indices[at] = v[c], c + s
    if np.count_nonzero(data) < nnz:
        keep = data != 0.0
        kept = np.zeros(nnz + 1, np.int64)  # kept entries before each slot
        np.cumsum(keep, out=kept[1:])
        index = _index_dtype(max(dim, int(kept[-1])))
        indptr = kept[indptr].astype(index, copy=False)
        data, indices = data[keep], indices[keep].astype(index, copy=False)
    return _Half(diag, data, indices, indptr)


def build_phi4_hamiltonian(p: ModelParams, d_tensor: CoeffTensor,
                           g4_tensor: CoeffTensor | None, basis: FockBasis) -> FockOperator:
    """Assemble the normal-ordered Hamiltonian

    H = 1/2 sum :Pi^2: + 1/2 sum D :Phi Phi: + 1/2 mu^2 sum :Phi^2:
        + lambda sum Gamma4 :Phi Phi Phi Phi:

    on basis.modes sites, with periodic wrapping of the tensor offsets.
    The lattice resolution is the tables' own order and scale; at nonzero
    coupling the two tables must agree on both.  At zero coupling the
    four-point table is not read.
    """
    _check_kind(d_tensor, "derivative-D")
    if p.coupling != 0.0:
        if g4_tensor is None:
            raise ShapeError("interacting Hamiltonian needs the four-point table")
        _check_kind(g4_tensor, "gamma-4")
        if g4_tensor.order != d_tensor.order:
            raise OrderMismatchError("gamma-4 order != derivative order",
                                     derivative=d_tensor.order, gamma4=g4_tensor.order)
        if g4_tensor.scale != d_tensor.scale:
            raise ScaleMismatchError("gamma-4 scale != derivative scale",
                                     derivative=d_tensor.scale, gamma4=g4_tensor.scale)
    n_modes = basis.modes
    w_mat = wrap_matrix(d_tensor, n_modes)
    terms = _quadratic_terms(w_mat, p.mass_squared, p.gamma, n_modes)
    if p.coupling != 0.0:
        t_dense = wrap_tensor_dense(g4_tensor, n_modes)
        terms = _quartic_terms(t_dense, p.coupling, p.gamma, n_modes, terms)

    # A key and its conjugate collect the same weights in the same order,
    # so their coefficients are bitwise equal and the key <= conj pass
    # covers both; only creators == annihilators lands on the diagonal.
    applied = [(coeff,) + _apply_term(basis, key[0], key[1])
               for key, coeff in terms.items()
               if key <= (key[1], key[0]) and coeff != 0.0]
    return FockOperator(basis, _symmetric_csr(applied, basis.dimension))


def _check_kind(t, kind):
    if t.kind != kind:
        raise ShapeError("wrong tensor kind", expected=kind, got=t.kind)


def free_reference_spectrum(p: ModelParams, d_tensor: CoeffTensor, modes: int):
    """Closed-form normal-mode data for the quadratic (lambda = 0) sector.

    Diagonalizes Omega^2 = D wrapped onto modes sites + mu^2 I and returns
    (omega, E0) with E0 the exact vacuum energy of the gamma-normal-ordered
    quadratic Hamiltonian:

        E0 = sum_j [ omega_j / 2 - (gamma + omega_j^2 / gamma) / 4 ].
    """
    _check_kind(d_tensor, "derivative-D")
    omega2 = np.linalg.eigvalsh(wrap_matrix(d_tensor, modes) + p.mass_squared * np.eye(modes))
    if omega2[0] < -1e-10:
        raise TachyonicConfigurationError(
            "mode frequency squared is negative",
            smallest=float(omega2[0]),
        )
    omega = np.sqrt(np.clip(omega2, 0.0, None))
    e0 = float(np.sum(omega / 2.0 - (p.gamma + omega**2 / p.gamma) / 4.0))
    return omega, e0


_BOUND_CHUNK = 2**16  # stored entries per step of _largest_row_sum


def _half_product(half, x):
    """H x for a vector or a C-ordered (dim, k) block x, from H's half
    form.  Starting from zero, scipy's csc_matvec(s) reads the upper arrays
    as the columns of the strict lower triangle and adds each row's lower
    entries in ascending column, then the diagonal term is added, and
    csr_matvec(s) continues each row's sum over its upper entries.  That is
    the sequential sum csr_matvec(s) forms over a full row of H, so the
    result equals scipy's full-matrix product bit for bit."""
    from scipy.sparse import _sparsetools as kernels

    diag, data, indices, indptr = half
    dim = len(diag)
    x = np.ascontiguousarray(x, dtype=np.float64)
    y = np.zeros(x.shape)
    if x.ndim == 1:
        kernels.csc_matvec(dim, dim, indptr, indices, data, x, y)
        y += diag * x
        kernels.csr_matvec(dim, dim, indptr, indices, data, x, y)
    else:
        k = x.shape[1]
        kernels.csc_matvecs(dim, dim, k, indptr, indices, data, x.ravel(), y.ravel())
        y += diag[:, None] * x
        kernels.csr_matvecs(dim, dim, k, indptr, indices, data, x.ravel(), y.ravel())
    return y


def _largest_row_sum(half):
    """The largest absolute row sum of a symmetric matrix from its half
    form, each row summed as _half_product sums it, so bit for bit scipy's
    abs(H) @ 1 on the full matrix.  One pass goes down the upper rows a
    chunk of about _BOUND_CHUNK entries at a time, never cutting a row, so
    only a chunk of |data| is ever copied.  A chunk's entries, read as
    columns of the lower triangle, finish the lower sums of its own rows
    (every lower entry of row r sits in an upper row j < r, and the
    chunks go in ascending j); then the diagonal and the upper entries
    complete them."""
    from scipy.sparse import _sparsetools as kernels

    diag, data, indices, indptr = half
    dim = len(diag)
    sums, ones = np.zeros(dim), np.ones(dim)
    best, row = 0.0, 0
    while row < dim:
        # the rows that end within the chunk, and at least one
        end = int(np.searchsorted(indptr, indptr[row] + _BOUND_CHUNK, side="right")) - 1
        end = max(end, row + 1)
        ptr = indptr[row:end + 1] - indptr[row]
        cut = slice(indptr[row], indptr[end])
        a, cols = np.abs(data[cut]), indices[cut]
        kernels.csc_matvec(dim, end - row, ptr, cols, a, ones, sums)
        part = sums[row:end]
        part += np.abs(diag[row:end])
        kernels.csr_matvec(end - row, dim, ptr, cols, a, ones, part)
        best = max(best, float(part.max()))
        row = end
    return best


def lanczos_lowest(op: FockOperator, count: int, tol: float = 1e-10):
    """Lowest eigenvalues with certified residual norms.

    Returns a list of (eigenvalue, residual) pairs sorted ascending.
    Small problems fall back to a dense solve of the expanded matrix; ARPACK
    multiplies by the half form from a start vector seeded with _START_SEED.
    The bound scales the largest absolute row sum, each row added in
    ascending column: down the columns of the dense |H|, or _largest_row_sum.
    """
    half = op.half
    dim = len(half.diagonal)
    if count < 1 or count > dim:
        raise IndexRangeError("eigenvalue count out of range", count=count, dimension=dim)
    if dim <= max(128, count + 2):
        rows, cols, vals = op.entries()
        dense = np.zeros((dim, dim))
        dense[rows, cols] = vals
        hnorm = float(np.abs(dense).sum(axis=0).max()) or 1.0
        evals, evecs = np.linalg.eigh(dense)
        evals, evecs = evals[:count], evecs[:, :count]
        resid = np.linalg.norm(dense @ evecs - evecs * evals, axis=0)
    else:
        import scipy.sparse.linalg as spla

        hnorm = _largest_row_sum(half) or 1.0
        rng = np.random.default_rng(_START_SEED)
        v0 = rng.standard_normal(dim)
        mat = spla.LinearOperator((dim, dim), matvec=partial(_half_product, half),
                                  dtype=np.float64)
        try:
            evals, evecs = spla.eigsh(mat, k=count, which="SA", v0=v0, tol=tol)
        except spla.ArpackNoConvergence as exc:
            raise ConvergenceFailureError(
                "iterative eigensolver did not converge",
                eigenvalues=list(map(float, np.atleast_1d(exc.eigenvalues))),
                count=count,
            ) from None
        order = np.argsort(evals)
        evals, evecs = evals[order], evecs[:, order]
        resid = np.linalg.norm(_half_product(half, evecs) - evecs * evals, axis=0)
    bad = resid > tol * hnorm
    if bad.any():
        raise ConvergenceFailureError(
            "residual norms exceed the requested tolerance",
            eigenvalues=[float(e) for e in evals],
            residuals=[float(r) for r in resid],
            bound=tol * hnorm,
        )
    return [(float(e), float(r)) for e, r in zip(evals, resid)]


def block_leakage_counts(op: FockOperator, tol: float = 0.0):
    """Diagnostics for the truncation edge.

    parity_violations: entries connecting states of different total
    occupation parity (must be zero: every Hamiltonian monomial carries
    an even ladder count).
    off_block: entries connecting different total occupations.
    edge: the subset of off_block entries where an endpoint touches the
    cutoff, i.e. the states where the truncated ladder algebra fails.

    tol filters entries by magnitude; the default counts everything,
    including the ~1e-15 couplings inherited from tensor-table rounding.
    The counts read the half form: a diagonal entry adds to none of them,
    and each upper entry counts twice, once for its mirror.
    """
    _, data, indices, indptr = op.half
    occ = op.basis.occupations()
    totals = occ.sum(axis=1)
    keep = np.abs(data) > tol
    r, c = _rows_of(indptr)[keep], indices[keep]
    parity_violations = int(np.sum((totals[r] - totals[c]) % 2 != 0))
    off = totals[r] != totals[c]
    at_edge = (occ[r].max(axis=1) == op.basis.cutoff) | (
        occ[c].max(axis=1) == op.basis.cutoff
    )
    return {
        "parity_violations": 2 * parity_violations,
        "off_block": 2 * int(off.sum()),
        "edge": 2 * int((off & at_edge).sum()),
    }
