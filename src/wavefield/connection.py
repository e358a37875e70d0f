"""Overlap tensors of scaling-function products: the derivative matrix D
and the m-point tensors Gamma (m = 2, 3, 4).

Entries are exact integrals of products of (derivatives of) translated
scaling functions.  Compact support makes each tensor a finite table over
integer offset tuples relative to the first index.  The tables are NOT
computed by quadrature: substituting the refinement equation into the
integral turns each table into the eigenvalue-1 fixed point of a finite
linear map (Beylkin, SIAM J. Numer. Anal. 29 (1992) 1716), constants of
each order that Latto, Resnikoff & Tenenbaum (1991) published as tables.
They ship the same way, as package data: one tensor_text file per kind
and order in tables/, D at orders 3-9 and 11, gamma-3 at 1-12 and gamma-4
at 1-7, read and validated by load_tensor on first use in a process,
never at import.  An order with no file raises unsupported-order.
tests/table_solver.py holds the dense bordered least-squares solver that
wrote the files; it regenerates them and is the tests' oracle for them.
The orders it cannot solve are the ones not shipped: D at 10 and 12 comes
out even only to 1.0e-12 and 5.7e-12, and gamma-4 from order 8 needs a
system above 1 GB.

The order K names the scaling function: the tables take K and the
oracle reads the table's; only recursion_residual, which re-applies the
map with the taps it is given, takes a FilterPair.

A plain-quadrature oracle on refined dyadic samples of the table's own
order provides the independent cross-check: oracle_deviation reports the
raw level-L deviation (tests/oracles.py extrapolates it for the rough
low orders, and holds the per-entry oracle whose sums it matches bit for
bit).  The oracle shares prefix products between neighbouring entries,
one multiply and one sum per entry; the residual forms every weight and
child shift at once and gathers blocks of tap combinations.

validate_tensor checks every rule at every scale, one permutation rule
for every kind (D's evenness is its n -> -n case) and the gamma-3/gamma-4
sum rules, on every read (load_tensor).  A shipped gamma-4 is read
against its gamma-3 partner: only the partition rule sum_{n4} gamma-4 =
gamma-3 pins entries such as (0,0,0).

Normalizations:
  D:        sum_n n^2 D_{0n} = -2   (twice-differentiated quadratic
            reproduction, integrated against s)
  gamma-m:  sum over the full table = 1 (partition of unity applied to
            every factor but the first)

Scaling to scale k multiplies gamma-m by 2^{k(m-2)/2}.  For D the change
of variables gives 2^{2k}, an exponent the tests recheck against a
scale-1 oracle rather than trusting the derivation.
"""
from __future__ import annotations

import itertools
import os
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import (
    AlreadyScaledError,
    CorruptTableError,
    IndexRangeError,
    NonDifferentiableOrderError,
    ParseError,
    ShapeError,
    UnsupportedOrderError,
)
from .filters import FilterPair, make_filters
from .scaling import MAX_LEVEL, scaling_samples

__all__ = [
    "CoeffTensor",
    "gamma_tensor",
    "derivative_overlaps",
    "rescale_tensor",
    "recursion_residual",
    "oracle_deviation",
    "validate_tensor",
    "tensor_text",
    "load_tensor",
    "wrap_matrix",
    "wrap_tensor_dense",
    "D_RESCALE_EXPONENT",
]

# table kind -> number of factors m in the underlying integrand
_KINDS = {"derivative-D": 2, "gamma-2": 2, "gamma-3": 3, "gamma-4": 4}

# per-unit-scale exponent for D; derived from the change of variables and
# settled against a scale-1 oracle in the tests, which rejects the
# alternative reading 2^k by three orders of magnitude
D_RESCALE_EXPONENT = 2

FORMAT_VERSION = 1

# most child values recursion_residual gathers at once: 128 KiB per
# temporary, about the per-combination arrays of a large gamma-4 table
_RESIDUAL_BLOCK = 2**14

# the shipped scale-0 tables, one tensor_text file per kind and order
_TABLE_DIR = os.path.join(os.path.dirname(__file__), "tables")

@dataclass(frozen=True)
class CoeffTensor:
    """Sparse offset table for one overlap tensor.

    entries maps offset tuples (n2, ..., nm), the translations of factors
    2..m relative to the first factor, to real values.  derivative-D and
    gamma-2 use 1-tuples.
    """

    kind: str
    order: int
    scale: int
    entries: dict = field(repr=False)

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ShapeError("unknown tensor kind", kind=self.kind)

    @property
    def support_radius(self):
        return 2 * self.order - 2

    @property
    def arity(self):
        """Number of factors m in the underlying integrand."""
        return _KINDS[self.kind]

    def value(self, offsets):
        return self.entries.get(tuple(offsets), 0.0)

    def sorted_items(self):
        return sorted(self.entries.items())


def _table_path(kind, order):
    """Where the shipped scale-0 table of one kind and order lies."""
    return os.path.join(_TABLE_DIR, f"{kind}-K{order}.tbl")


@lru_cache(maxsize=48)
def _shipped_table(kind, order):
    """Scale-0 table of one kind: the shipped fixed point of its refinement
    map, read and validated by load_tensor on first use in a process, a
    gamma-4 table against its shipped gamma-3 partner.  An order with no
    shipped table raises unsupported-order."""
    partner = _shipped_table("gamma-3", order) if kind == "gamma-4" else None
    try:
        return load_tensor(_table_path(kind, order), partner)
    except FileNotFoundError:
        raise UnsupportedOrderError(
            "no connection table is shipped for this order",
            kind=kind, order=order,
        ) from None


def gamma_tensor(order: int, m: int) -> CoeffTensor:
    """Scale-0 m-point overlap table Gamma_{0, n2..nm} of the given order.

    m=2 is orthonormality and returns the Kronecker delta without a table.
    """
    make_filters(order)  # validates the order
    if m not in (2, 3, 4):
        raise IndexRangeError("gamma arity must be 2, 3 or 4", m=m)
    if m == 2:
        return CoeffTensor("gamma-2", order, 0, {(0,): 1.0})
    return _shipped_table(f"gamma-{m}", order)


def derivative_overlaps(order: int) -> CoeffTensor:
    """Scale-0 derivative overlap table D_{0n} = int s'(x) s'(x-n) dx."""
    make_filters(order)  # validates the order
    if order < 3:
        raise NonDifferentiableOrderError(
            "derivative overlaps need order >= 3", order=order
        )
    return _shipped_table("derivative-D", order)


def _offset_cube(t: CoeffTensor, pad: int):
    """t's entries on a zero-padded dense cube over offsets -reach..reach,
    reach = 2 max|n| + pad: wide enough for every rebased permutation of
    a full index tuple (pad 0) and every refinement-map child (pad taps-1).
    Returns the offsets and values in entry order, the cube and reach."""
    width = t.arity - 1
    offs = np.array(list(t.entries), dtype=np.int64).reshape(-1, width)
    vals = np.array(list(t.entries.values()), dtype=float)
    reach = 2 * int(np.abs(offs).max(initial=0)) + pad
    cube = np.zeros((2 * reach + 1,) * width)
    cube[tuple((offs + reach).T)] = vals
    return offs, vals, cube, reach


def recursion_residual(t: CoeffTensor, fp: FilterPair) -> float:
    """Max deviation when the refinement map is applied to the table.

    A correct table is an exact fixed point; the residual is solver noise.
    The table is placed on a zero-padded dense offset cube.  Each tap
    combination (l_1..l_m) adds w_l * x at the child offsets
    2 n_i + l_{i+1} - l_1 of every entry, with w_l =
    2^{(m-2)/2} h_{l_1}..h_{l_m} for gamma-m and 4 h_{l_1} h_{l_2} for D.
    All weights and child shifts are formed at once; the children are
    gathered in blocks of combinations of at most _RESIDUAL_BLOCK values,
    and each block is added in product order, so the sums are those of a
    loop over the combinations, bit for bit.  This is an independent
    re-application of the map, not the matrix the solver assembled.
    """
    if fp.order != t.order:
        raise ShapeError("tensor/filter order mismatch", tensor=t.order, filter=fp.order)
    if not t.entries:
        return 0.0
    h, taps, m = fp.h, len(fp.h), t.arity
    offs, vals, cube, reach = _offset_cube(t, taps - 1)
    flat = cube.ravel()
    strides = cube.shape[0] ** np.arange(m - 2, -1, -1, dtype=np.int64)
    base = (2 * offs + reach) @ strides
    # a trailing copy of the first entry keeps every block two entries
    # wide: numpy sums a single column pairwise, not row after row
    base = np.append(base, base[0])
    combos = np.indices((taps,) * m).reshape(m, -1).T  # product order
    pref = 4.0 if t.kind == "derivative-D" else 2.0 ** ((m - 2) / 2.0)
    weights = pref * np.prod(h[combos], axis=1)
    shifts = (combos[:, 1:] - combos[:, :1]) @ strides
    step = max(1, _RESIDUAL_BLOCK // len(base))
    acc = np.zeros(len(base))
    for lo in range(0, len(weights), step):
        rows = weights[lo:lo + step, None] * flat[base + shifts[lo:lo + step, None]]
        rows[0] += acc
        acc = np.add.reduce(rows, axis=0)  # row after row, in order
    return float(np.abs(acc[:-1] - vals).max())


def _scale_factor(t: CoeffTensor, k: int) -> float:
    """Factor carrying a scale-0 table of t's kind to scale k."""
    if t.kind == "derivative-D":
        return 2.0 ** (D_RESCALE_EXPONENT * k)
    return 2.0 ** (k * (t.arity - 2) / 2.0)


def rescale_tensor(t: CoeffTensor, k: int) -> CoeffTensor:
    """Carry a scale-0 table to scale k.

    gamma-m scales by 2^{k(m-2)/2}; D scales by 2^{k * D_RESCALE_EXPONENT}.
    A scale that carries a nonzero entry past the float range, above the
    largest float or below the smallest normal one, raises index.
    """
    if t.scale != 0:
        raise AlreadyScaledError("tensor is not at scale 0", scale=t.scale)
    try:
        fac = _scale_factor(t, k)
    except OverflowError:
        fac = np.inf
    entries = {tup: v * fac for tup, v in t.entries.items()}
    scaled = np.abs(list(entries.values()))
    nonzero = np.array(list(t.entries.values())) != 0
    if not (np.isfinite(scaled).all()
            and (scaled[nonzero] >= np.finfo(float).tiny).all()):
        raise IndexRangeError("scale carries the table past the float range",
                              kind=t.kind, scale=k)
    return CoeffTensor(t.kind, t.order, k, entries)


def _fd_derivative(values, level):
    """Centered finite difference on a dyadic sample array (zero outside)."""
    out = np.empty(len(values))
    scale = 2.0**level / 2.0
    out[1:-1] = (values[2:] - values[:-2]) * scale
    out[0] = values[1] * scale
    out[-1] = -values[-2] * scale
    return out


@lru_cache(maxsize=48)
def _oracle_samples(order, level, derivative):
    s = scaling_samples(order, level).values
    if not derivative:
        return s
    d = _fd_derivative(s, level)
    d.setflags(write=False)
    return d


def _oracle_sums(t: CoeffTensor, offsets, level, scale):
    """Level-L plain-quadrature values of t's integrands at the offsets.

    Each is the Riemann sum of prod_i f(x - n_i) over the common support,
    n_1 = 0, f the level-L cascade samples of t's own order (gamma-m) or
    their centered finite difference (D, which keeps this path independent
    of the fixed-point solver AND of the derivative-value eigenproblem),
    times 2^{k[(m-2)/2 + derivatives]} at scale k (substitution u = 2^k x).
    The plain scaled sum equals the trapezoid value for orders >= 2
    (endpoint samples vanish) and is exact for the order-1 indicator.

    The offsets are walked depth first with a stack of prefix products,
    the product of the first j factors on their common window, each kept
    in one of m-1 reused buffers while the next offset shares its prefix:
    a gamma-4 entry costs one multiply and one sum.  Each sample is still
    formed as ((f_1 f_2) f_3) f_4 and summed over a contiguous array of
    its entry's window, so each value matches a per-entry sum bit for bit.
    """
    if level > MAX_LEVEL or level < 1:
        raise IndexRangeError(f"oracle level must lie in 1..{MAX_LEVEL}",
                              level=level)
    der = 2 if t.kind == "derivative-D" else 0
    s = _oracle_samples(t.order, level, bool(der))
    g, n1, m = 2**level, len(s), t.arity
    bufs = [np.empty(n1) for _ in range(m - 1)]
    prods, wins, prev = [s], [0], ()
    sums = np.empty(len(offsets))
    for i, tup in enumerate(offsets):
        j = 0
        while j < len(prev) and prev[j] == tup[j]:
            j += 1
        del prods[j + 1:], wins[j + 1:]
        for depth in range(j, m - 1):
            n = tup[depth] * g
            lo = max(wins[-1], n)
            hi = max(lo, min(wins[-1] + len(prods[-1]), n1 + n))
            out = bufs[depth][:hi - lo]
            np.multiply(prods[-1][lo - wins[-1]:hi - wins[-1]],
                        s[lo - n:hi - n], out=out)
            prods.append(out)
            wins.append(lo)
        sums[i] = prods[-1].sum()
        prev = tup
    return sums / g * 2.0 ** (scale * ((m - 2) / 2.0 + der))


def oracle_deviation(t: CoeffTensor, level: int) -> float:
    """Largest deviation of the table from its plain level-L oracle sums.

    The raw Riemann-sum check, at the table's own order and scale.
    """
    offsets = sorted(t.entries)
    vals = np.array([t.entries[tup] for tup in offsets])
    sums = _oracle_sums(t, offsets, level, t.scale)
    return float(np.abs(sums - vals).max(initial=0.0))


def validate_tensor(t: CoeffTensor, gamma3: CoeffTensor | None = None):
    """Re-check every intrinsic invariant; raises corrupt-table on failure.

    Every rule holds at every scale, its bound times the scale-0 -> t.scale
    factor f.  Every kind is invariant under the m! permutations of its full
    index tuple (0, n2..nm), rebased to a leading 0 (D: evenness).  gamma-3
    sums over n3 to f delta_{n2,0}; gamma-4 sums over n4 to the gamma3
    partner carried to t.scale, checked when one (at any scale) is supplied.
    """
    radius = t.support_radius
    for tup in t.entries:
        if any(abs(n) > radius for n in tup):
            raise CorruptTableError(
                "offset outside support radius", offset=tup, radius=radius
            )
    fac = _scale_factor(t, t.scale)
    offs, vals, cube, reach = _offset_cube(t, 0)
    full = np.hstack([np.zeros((len(offs), 1), dtype=np.int64), offs])
    perms = full[:, list(itertools.permutations(range(t.arity)))]
    rebased = perms[..., 1:] - perms[..., :1] + reach
    worst = float(np.abs(vals[:, None] - cube[tuple(np.moveaxis(rebased, -1, 0))])
                  .max(initial=0.0))
    if worst > 1e-12 * fac:
        what = ("derivative table not even" if t.kind == "derivative-D"
                else "table not permutation symmetric")
        raise CorruptTableError(what, deviation=worst)
    if t.kind == "derivative-D":
        total = sum(t.entries.values())
        if abs(total) > 1e-10 * fac:
            raise CorruptTableError("derivative row sum nonzero", total=total)
        wrapped = wrap_matrix(t, 4 * t.order)
        low = float(np.linalg.eigvalsh(wrapped)[0])
        if low < -1e-10 * max(1.0, np.abs(wrapped).max()):
            raise CorruptTableError(
                "periodized derivative matrix not PSD", smallest_eigenvalue=low
            )
    side = 2 * radius + 1
    # bincount adds sequentially in entry order, like a sum over the dict
    if t.kind == "gamma-3":
        totals = np.bincount(offs[:, 0] + radius, weights=vals, minlength=side)
        delta = fac * (np.arange(side) == radius)
        bad = np.flatnonzero(np.abs(totals - delta) > 1e-10 * fac)
        if bad.size:
            raise CorruptTableError(
                "three-point sum rule violated",
                n2=int(bad[0]) - radius, total=float(totals[bad[0]]),
            )
    if t.kind == "gamma-4" and gamma3 is not None:
        pair = (offs[:, 0] + radius) * side + offs[:, 1] + radius
        totals = np.bincount(pair, weights=vals, minlength=side * side)
        keys, first = np.unique(pair, return_index=True)
        ref = np.array([gamma3.value(p) for p in offs[first, :2].tolist()])
        ref = ref * (fac / _scale_factor(gamma3, gamma3.scale))
        worst = float(np.abs(totals[keys] - ref).max(initial=0.0))
        if worst > 1e-10 * fac:
            raise CorruptTableError(
                "four-point partition rule violated", deviation=worst
            )


def tensor_text(t: CoeffTensor) -> str:
    """t in the versioned container format of the shipped tables, which
    load_tensor reads: a header, then one 'offsets value' line per entry."""
    lines = [
        f"wavefield-tensor {FORMAT_VERSION}",
        f"kind {t.kind}",
        f"order {t.order}",
        f"scale {t.scale}",
        f"support-radius {t.support_radius}",
        f"entries {len(t.entries)}",
    ]
    for tup, v in t.sorted_items():
        lines.append(" ".join(str(n) for n in tup) + " " + format(v, ".17g"))
    return "\n".join(lines) + "\n"


def _parse_header_line(line, key, lineno):
    parts = line.split()
    if len(parts) != 2 or parts[0] != key:
        raise ParseError("malformed header line", line=lineno, expected=key)
    return parts[1]


def load_tensor(path, gamma3: CoeffTensor | None = None) -> CoeffTensor:
    """Read a table in the tensor_text format and re-validate its invariants.

    Structural problems (bad header, counts, offsets, metadata that
    contradicts itself) raise a parse error; value-level invariant
    violations raise a corrupt-table error.  gamma3 is passed on to
    validate_tensor, which then also checks a gamma-4 table against the
    four-point partition rule.
    """
    with open(path) as fh:
        raw = fh.read().splitlines()
    if not raw:
        raise ParseError("empty tensor file", path=os.fspath(path))
    head = raw[0].split()
    if len(head) != 2 or head[0] != "wavefield-tensor":
        raise ParseError("missing format line", path=os.fspath(path))
    if head[1] != str(FORMAT_VERSION):
        raise ParseError("unsupported format version", version=head[1])
    if len(raw) < 6:
        raise ParseError("truncated header", lines=len(raw))
    kind = _parse_header_line(raw[1], "kind", 2)
    if kind not in _KINDS:
        raise ParseError("unknown kind", kind=kind)
    try:
        order = int(_parse_header_line(raw[2], "order", 3))
        scale = int(_parse_header_line(raw[3], "scale", 4))
        radius = int(_parse_header_line(raw[4], "support-radius", 5))
        count = int(_parse_header_line(raw[5], "entries", 6))
    except ValueError as exc:
        raise ParseError("non-integer header field", detail=str(exc)) from None
    if order < 1:
        raise ParseError("order must be positive", order=order)
    if radius != 2 * order - 2:
        raise ParseError(
            "support radius inconsistent with order", order=order, radius=radius
        )
    body = raw[6:]
    if len(body) != count:
        raise ParseError("entry count mismatch", declared=count, found=len(body))
    width = _KINDS[kind] - 1
    entries = {}
    for lineno, line in enumerate(body, start=7):
        parts = line.split()
        if len(parts) != width + 1:
            raise ParseError("bad record arity", line=lineno, fields=len(parts))
        try:
            tup = tuple(int(p) for p in parts[:width])
            val = float(parts[-1])
        except ValueError:
            raise ParseError("unparsable record", line=lineno) from None
        if not np.isfinite(val):
            raise ParseError("non-finite value", line=lineno)
        if any(abs(n) > radius for n in tup):
            raise ParseError("offset outside declared radius", line=lineno, offset=tup)
        if tup in entries:
            raise ParseError("duplicate offset", line=lineno, offset=tup)
        entries[tup] = val
    t = CoeffTensor(kind, order, scale, entries)
    validate_tensor(t, gamma3)
    return t


def wrap_matrix(t: CoeffTensor, n_modes: int) -> np.ndarray:
    """Periodize a two-factor table onto n_modes translations.

    Offsets congruent mod n_modes alias onto the same entry
    (wrap_tensor_dense), so the result is a circulant matrix valid for
    any n_modes >= 1.
    """
    if t.arity != 2:
        raise ShapeError("wrap_matrix needs a two-factor table", kind=t.kind)
    row = wrap_tensor_dense(t, n_modes)
    i = np.arange(n_modes)
    return row[(i[None, :] - i[:, None]) % n_modes]


def wrap_tensor_dense(t: CoeffTensor, n_modes: int) -> np.ndarray:
    """Periodize gamma-m offsets onto a dense (n_modes,)^{m-1} block.

    Entry [j2, ..., jm] holds the aliased sum over offsets congruent to
    (j2, ..., jm) mod n_modes; the full tensor is recovered by cyclic
    translation of the first index.
    """
    if n_modes < 1:
        raise ShapeError("need at least one mode", n_modes=n_modes)
    width = t.arity - 1
    out = np.zeros((n_modes,) * width)
    for tup, v in t.entries.items():
        out[tuple(n % n_modes for n in tup)] += v
    return out
