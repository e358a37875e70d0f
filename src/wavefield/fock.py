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
and stays under the cutoff, with sources in ascending order.  One stable
sort sums the triplets per matrix entry in term order, which fixes every
value bit for bit, and every off-diagonal sum is mirrored explicitly, so
the stored matrix is exactly symmetric (entry by entry, not within a
tolerance).

The volume truncation wraps tensor offsets modulo the mode count.  The
wrapped sums are well defined for any N >= 1; for N < 2K distinct
offsets alias onto the same entry, which is exactly what restricting a
periodic lattice below the filter support means.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .connection import CoeffTensor, wrap_matrix, wrap_tensor_dense
from .errors import (
    ConvergenceFailureError,
    IndexRangeError,
    OrderMismatchError,
    ScaleMismatchError,
    ShapeError,
    TachyonicConfigurationError,
)

_START_SEED = 7  # seeds the iterative eigensolver's start vector

__all__ = [
    "ModelParams",
    "FockBasis",
    "FockOperator",
    "mode_operator",
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
    """Occupation-number basis, lexicographic with mode 0 fastest."""

    modes: int
    cutoff: int

    def __post_init__(self):
        if self.modes < 1 or self.cutoff < 1:
            raise ShapeError(
                "need modes >= 1 and cutoff >= 1",
                modes=self.modes,
                cutoff=self.cutoff,
            )

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


@dataclass(frozen=True)
class FockOperator:
    basis: FockBasis
    matrix: sp.csr_matrix = field(repr=False)


@lru_cache(maxsize=16)
def _state_grid(modes, cutoff):
    """Basis indices with one axis per mode; axis modes-1-j holds mode j,
    so C order runs mode 0 fastest."""
    grid = np.arange((cutoff + 1) ** modes, dtype=np.int64).reshape((cutoff + 1,) * modes)
    grid.setflags(write=False)
    return grid


def _apply_term(basis, creators, annihilators):
    """Matrix triplets of prod a^+_{creators} prod a_{annihilators}.

    Returns (source, target, amplitude) over the basis states where the
    amplitude is nonzero and the target stays under the cutoff.  Those
    states form a box, a_j <= occ_j <= cutoff - max(0, c_j - a_j) with a_j
    and c_j the counts of mode j among the annihilators and the creators,
    enumerated with mode 0 fastest, so the sources ascend.  The sqrt
    factors multiply in operator order, annihilators first.
    """
    modes, cutoff = basis.modes, basis.cutoff
    box = [slice(None)] * modes
    low = {}
    for j in set(creators + annihilators):
        a, c = annihilators.count(j), creators.count(j)
        top = cutoff - max(0, c - a)
        if top < a:
            return np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0)
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
    amp = np.broadcast_to(amp, src.shape).ravel()
    src = src.ravel()
    shift = sum((cutoff + 1) ** j for j in creators) - sum((cutoff + 1) ** j for j in annihilators)
    return src, src + shift, amp


def mode_operator(basis: FockBasis, mode: int, which: str, gamma: float = 1.0) -> FockOperator:
    """Single-mode ladder, field, or momentum matrix.

    which: annihilate | create | phi | pi_times_i, with
    phi = (a + a^+)/sqrt(2 gamma) and pi_times_i the real antisymmetric
    matrix sqrt(gamma/2) (a^+ - a) representing Pi/i.
    """
    if not 0 <= mode < basis.modes:
        raise IndexRangeError("mode out of range", mode=mode, modes=basis.modes)
    if gamma <= 0:
        raise ShapeError("gamma must be positive", gamma=gamma)
    dim = basis.dimension

    def mat(creators, annihilators, coeff):
        src, tgt, amp = _apply_term(basis, creators, annihilators)
        return sp.coo_matrix((coeff * amp, (tgt, src)), shape=(dim, dim)).tocsr()

    if which == "annihilate":
        out = mat((), (mode,), 1.0)
    elif which == "create":
        out = mat((mode,), (), 1.0)
    elif which == "phi":
        c = 1.0 / np.sqrt(2.0 * gamma)
        out = mat((), (mode,), c) + mat((mode,), (), c)
    elif which == "pi_times_i":
        c = np.sqrt(gamma / 2.0)
        out = mat((mode,), (), c) + mat((), (mode,), -c)
    else:
        raise ShapeError("unknown operator name", which=which)
    return FockOperator(basis, out)


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


def _dedup(pos, vals, dim):
    """Sum the values at equal flat positions row * dim + col: the
    assembler's one sort.

    The sort is stable, so each sum adds its entries in input order,
    which fixes every matrix value bit for bit.  Where (position, input
    index) packs into one int64, a plain sort of those unique keys gives
    the stable order at about a third of the cost of a stable argsort.
    Returns (rows, cols, sums) in (row, col) order."""
    if len(pos) == 0:
        return pos, pos, vals
    width = (len(pos) - 1).bit_length()
    if (dim * dim - 1).bit_length() + width <= 63:
        key = np.sort((pos << width) | np.arange(len(pos)))
        pos, vals = key >> width, vals[key & ((1 << width) - 1)]
    else:
        order = np.argsort(pos, kind="stable")
        pos, vals = pos[order], vals[order]
    starts = np.flatnonzero(np.r_[True, pos[1:] != pos[:-1]])
    pos = pos[starts]
    return pos // dim, pos % dim, np.add.reduceat(vals, starts)


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
    dim = basis.dimension
    parts = []
    for key, coeff in terms.items():
        if key > (key[1], key[0]) or coeff == 0.0:
            continue
        src, tgt, amp = _apply_term(basis, key[0], key[1])
        parts.append((tgt * dim + src, coeff * amp))
    pos, vals = map(np.concatenate, zip(*parts))
    del parts  # free the per-term arrays before the sort: lower peak memory
    r, c, v = _dedup(pos, vals, dim)
    off = r != c
    rows = np.concatenate([r, c[off]])
    cols = np.concatenate([c, r[off]])
    vals = np.concatenate([v, v[off]])
    mat = sp.coo_matrix((vals, (rows, cols)), shape=(dim, dim)).tocsr()
    return FockOperator(basis, mat)


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


def lanczos_lowest(op: FockOperator, count: int, tol: float = 1e-10):
    """Lowest eigenvalues with certified residual norms.

    Returns a list of (eigenvalue, residual) pairs sorted ascending.
    Small problems fall back to a dense solve; the iterative path uses a
    deterministic start vector seeded with _START_SEED.
    """
    mat = op.matrix
    dim = mat.shape[0]
    if count < 1 or count > dim:
        raise IndexRangeError("eigenvalue count out of range", count=count, dimension=dim)
    hnorm = float(np.abs(mat).sum(axis=1).max()) or 1.0
    if dim <= max(128, count + 2):
        dense = mat.toarray()
        evals, evecs = np.linalg.eigh(dense)
        evals, evecs = evals[:count], evecs[:, :count]
        resid = np.linalg.norm(dense @ evecs - evecs * evals, axis=0)
    else:
        rng = np.random.default_rng(_START_SEED)
        v0 = rng.standard_normal(dim)
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
        resid = np.linalg.norm(mat @ evecs - evecs * evals, axis=0)
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
    """
    coo = op.matrix.tocoo()
    occ = op.basis.occupations()
    totals = occ.sum(axis=1)
    keep = np.abs(coo.data) > tol
    r, c = coo.row[keep], coo.col[keep]
    parity_violations = int(np.sum((totals[r] - totals[c]) % 2 != 0))
    off = totals[r] != totals[c]
    at_edge = (occ[r].max(axis=1) == op.basis.cutoff) | (
        occ[c].max(axis=1) == op.basis.cutoff
    )
    return {
        "parity_violations": parity_violations,
        "off_block": int(off.sum()),
        "edge": int((off & at_edge).sum()),
    }
