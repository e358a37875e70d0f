"""Overlap tensors of scaling-function products: the derivative matrix D
and the m-point tensors Gamma (m = 2, 3, 4).

Entries are exact integrals of products of (derivatives of) translated
scaling functions.  Compact support makes each tensor a finite table over
integer offset tuples relative to the first index.  The tables are NOT
computed by quadrature: substituting the refinement equation into the
integral turns each table into the eigenvalue-1 fixed point of a finite
linear map (Beylkin, SIAM J. Numer. Anal. 29 (1992) 1716), constants of
each order that Latto, Resnikoff & Tenenbaum (1991) published as tables.
They ship the same way, as package data: one save_tensor file per kind
and order in tables/, D at orders 3-9 and 11, gamma-3 at 1-12 and gamma-4
at 1-7, read and validated by load_tensor on first use in a process,
never at import.  An order with no file raises unsupported-order.
tests/table_solver.py holds the dense bordered least-squares solver that
wrote the files; it regenerates them and is the tests' oracle for them.
The orders it cannot solve are the ones not shipped: D at 10 and 12 comes
out even only to 1.0e-12 and 5.7e-12, and gamma-4 from order 8 needs a
system above 1 GB.

The order K names the scaling function: the tables, the oracle and
resolve_d_exponent take K; only recursion_residual, which re-applies the
map with the taps it is given, takes a FilterPair.

A plain-quadrature oracle on refined dyadic samples of the table's own
order provides the independent cross-check: oracle_deviation reports the
raw level-L deviation, and for the rough low orders its Aitken-extrapolated
form (extrapolated_oracle) reaches the accuracy that the plain sum at the
same level cannot.  validate_tensor checks every rule at every scale, one
permutation rule for every kind (D's evenness is its n -> -n case) and the
gamma-3/gamma-4 sum rules, on write (save_tensor) and read (load_tensor).
A shipped gamma-4 is read against its gamma-3 partner: only the partition
rule sum_{n4} gamma-4 = gamma-3 pins entries such as (0,0,0).

Normalizations:
  D:        sum_n n^2 D_{0n} = -2   (twice-differentiated quadratic
            reproduction, integrated against s)
  gamma-m:  sum over the full table = 1 (partition of unity applied to
            every factor but the first)

Scaling to scale k multiplies gamma-m by 2^{k(m-2)/2}.  For D the change
of variables gives 2^{2k}; resolve_d_exponent() rechecks that exponent
against a scale-1 oracle rather than trusting the derivation.
"""

from __future__ import annotations

import itertools
import os
import tempfile
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
    "quadrature_oracle",
    "oracle_deviation",
    "aitken_limit",
    "extrapolated_oracle",
    "resolve_d_exponent",
    "validate_tensor",
    "tensor_text",
    "save_tensor",
    "load_tensor",
    "wrap_matrix",
    "wrap_tensor_dense",
    "D_RESCALE_EXPONENT",
]

# table kind -> number of factors m in the underlying integrand
_KINDS = {"derivative-D": 2, "gamma-2": 2, "gamma-3": 3, "gamma-4": 4}

# per-unit-scale exponent for D; derived from the change of variables and
# settled against the scale-1 oracle (resolve_d_exponent), which rejects
# the alternative reading 2^k by three orders of magnitude
D_RESCALE_EXPONENT = 2

FORMAT_VERSION = 1

# the shipped scale-0 tables, one save_tensor file per kind and order
_TABLE_DIR = os.path.join(os.path.dirname(__file__), "tables")

# Aitken extrapolation of the oracle is trusted only where the ratios of
# successive level differences agree to this fraction (among the tables
# whose raw sums miss the criterion-06 tolerances the largest drift is 7%,
# for gamma-4 at order 2)
RATIO_AGREEMENT = 0.25

# level differences at most this large, relative to max(1, |sum|), are
# rounding noise: their ratios say nothing about convergence
ROUNDING_FLOOR = 64 * np.finfo(float).eps


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
    The table is placed on a zero-padded dense offset cube, and each tap
    combination (l_1..l_m) adds w_l * x at the child offsets
    2 n_i + l_{i+1} - l_1 of every entry at once, with w_l =
    2^{(m-2)/2} h_{l_1}..h_{l_m} for gamma-m and 4 h_{l_1} h_{l_2} for D.
    This is an independent re-application of the map, not the matrix the
    solver assembled.
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
    acc = np.zeros(len(vals))
    pref = 2.0 ** ((m - 2) / 2.0)
    for c in itertools.product(range(taps), repeat=m):
        if t.kind == "derivative-D":
            w = 4.0 * h[c[0]] * h[c[1]]
        else:
            w = pref * float(np.prod(h[list(c)]))
        shift = (np.array(c[1:]) - c[0]) @ strides
        acc += w * flat[base + shift]
    return float(np.abs(acc - vals).max())


def _scale_factor(t: CoeffTensor, k: int) -> float:
    """Factor carrying a scale-0 table of t's kind to scale k."""
    if t.kind == "derivative-D":
        return 2.0 ** (D_RESCALE_EXPONENT * k)
    return 2.0 ** (k * (t.arity - 2) / 2.0)


def rescale_tensor(t: CoeffTensor, k: int) -> CoeffTensor:
    """Carry a scale-0 table to scale k.

    gamma-m scales by 2^{k(m-2)/2}; D scales by 2^{k * D_RESCALE_EXPONENT}.
    A scale that carries an entry past the float range raises index.
    """
    if t.scale != 0:
        raise AlreadyScaledError("tensor is not at scale 0", scale=t.scale)
    try:
        fac = _scale_factor(t, k)
    except OverflowError:
        fac = np.inf
    entries = {tup: v * fac for tup, v in t.entries.items()}
    if not np.isfinite(list(entries.values())).all():
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


def quadrature_oracle(order: int, factors, level: int, scale: int = 0,
                      weight_power: int = 0) -> float:
    """Riemann-sum value of int x^p prod_i f_i(x - n_i) dx, f_i the scaling
    function of the given order (or its derivative) sampled at the level.

    factors: sequence of (translation, derivative_order) with derivative
    order 0 or 1; at most 4 factors.  Derivative factors use a centered
    finite difference of the refined samples, which keeps this path
    independent of the fixed-point solver AND of the derivative-value
    eigenproblem.  The plain scaled sum equals the trapezoid value for
    orders >= 2 (endpoint samples vanish) and is exact for the order-1
    indicator, where a literal trapezoid rule is not.

    scale k multiplies the scale-0 integral by 2^{k[(m-2)/2 + sum o_i]}
    (substitution u = 2^k x with one 2^{k/2} per factor and 2^k per
    derivative).  The x^p weight is supported at scale 0 only.
    """
    factors = [(int(n), int(d)) for n, d in factors]
    if not 1 <= len(factors) <= 4:
        raise ShapeError("oracle supports 1..4 factors", count=len(factors))
    if level > MAX_LEVEL or level < 1:
        raise IndexRangeError(f"oracle level must lie in 1..{MAX_LEVEL}",
                              level=level)
    if any(d not in (0, 1) for _, d in factors):
        raise ShapeError("only first derivatives are supported")
    if any(d == 1 for _, d in factors) and order < 3:
        raise NonDifferentiableOrderError(
            "derivative factors need order >= 3", order=order
        )
    if weight_power and scale != 0:
        raise ShapeError("polynomial weight is only defined at scale 0")

    s = _oracle_samples(order, level, False)
    ds = _oracle_samples(order, level, True) if any(d for _, d in factors) else None
    g = 2**level
    n1 = len(s)
    lo = max([0] + [n * g for n, _ in factors])
    hi = min([n1] + [n1 + n * g for n, _ in factors])
    if hi <= lo:
        total = 0.0
    else:
        acc = np.ones(hi - lo)
        for n, d in factors:
            src = ds if d else s
            acc = acc * src[lo - n * g : hi - n * g]
        if weight_power:
            acc = acc * (np.arange(lo, hi) / g) ** weight_power
        total = acc.sum() / g
    m = len(factors)
    der = sum(d for _, d in factors)
    return float(total * 2.0 ** (scale * ((m - 2) / 2.0 + der)))


def aitken_limit(sums):
    """Aitken delta-squared limit of oracle sums at four successive levels.

    sums has shape (4, ...): raw sums at levels L-3..L for any number of
    entries.  With successive differences d1, d2, d3 and ratios
    r1 = d2/d1, r2 = d3/d2, an entry is extrapolated from its last three
    levels, S_L - d3^2 / (d3 - d2), only when

      * 0 < r2 < 1 (monotone geometric convergence),
      * |r1 - r2| <= RATIO_AGREEMENT * r2 (the ratio is stable), and
      * |d2| and |d3| exceed ROUNDING_FLOOR * max(1, |S_L|) (the
        differences are not rounding noise).

    Every other entry keeps its raw level-L sum.  Returns the limits and a
    boolean mask of the entries that fell back.
    """
    s = np.asarray(sums, dtype=float)
    if s.shape[:1] != (4,):
        raise ShapeError("need sums at exactly four levels", shape=s.shape)
    d1, d2, d3 = np.diff(s, axis=0)
    floor = ROUNDING_FLOOR * np.maximum(1.0, np.abs(s[3]))
    with np.errstate(divide="ignore", invalid="ignore"):
        r1, r2 = d2 / d1, d3 / d2
        ok = ((np.abs(d2) > floor) & (np.abs(d3) > floor)
              & (r2 > 0) & (r2 < 1)
              & (np.abs(r1 - r2) <= RATIO_AGREEMENT * r2))
        limit = s[3] - d3 * d3 / (d3 - d2)
    return np.where(ok, limit, s[3]), ~ok


def _oracle_factors(t: CoeffTensor, offsets):
    """quadrature_oracle factors of the integrand behind entry offsets."""
    if t.kind == "derivative-D":
        return [(0, 1), (offsets[0], 1)]
    return [(0, 0)] + [(n, 0) for n in offsets]


def _oracle_sums(t: CoeffTensor, offsets, level, scale):
    """Level-L quadrature_oracle sums of t's integrands at the given offsets,
    on the filters of t's own order."""
    return np.array([
        quadrature_oracle(t.order, _oracle_factors(t, tup), level, scale)
        for tup in offsets
    ])


def oracle_deviation(t: CoeffTensor, level: int) -> float:
    """Largest deviation of the table from its plain level-L oracle sums.

    The raw Riemann-sum check, at the table's own order and scale; for the
    rough low orders see extrapolated_oracle.
    """
    offsets = sorted(t.entries)
    vals = np.array([t.entries[tup] for tup in offsets])
    sums = _oracle_sums(t, offsets, level, t.scale)
    return float(np.abs(sums - vals).max(initial=0.0))


def extrapolated_oracle(t: CoeffTensor, level: int) -> dict:
    """Oracle deviation of a table, raw and Aitken-extrapolated.

    Each entry's quadrature_oracle sum, on the filters of the table's own
    order and at its own scale, is taken at levels level-3..level
    and passed through aitken_limit, which extrapolates only a stable
    geometric sequence and otherwise keeps the raw level-L sum (a
    fallback).  Built on quadrature_oracle alone, so it stays independent
    of the fixed-point solver.  Returns the largest raw level-L deviation
    ('raw', the oracle_deviation figure), the largest extrapolated
    deviation ('extrapolated'), the number of fallback entries
    ('fallbacks') and of entries ('entries').
    """
    if not 4 <= level <= MAX_LEVEL:
        raise IndexRangeError(f"extrapolated oracle level must lie in "
                              f"4..{MAX_LEVEL}", level=level)
    offsets = sorted(t.entries)
    vals = np.array([t.entries[tup] for tup in offsets])
    sums = np.array([
        _oracle_sums(t, offsets, lev, t.scale)
        for lev in range(level - 3, level + 1)
    ]).reshape(4, len(offsets))
    limits, fell_back = aitken_limit(sums)
    return {
        "raw": float(np.abs(sums[3] - vals).max(initial=0.0)),
        "extrapolated": float(np.abs(limits - vals).max(initial=0.0)),
        "fallbacks": int(fell_back.sum()),
        "entries": len(offsets),
    }


def resolve_d_exponent(order: int, level: int = 12) -> dict:
    """Settle the per-scale exponent of D by direct scale-1 comparison.

    Candidate exponents 1 and 2 differ by a factor 2 at k=1, far above
    the finite-difference error of the oracle, so the comparison is
    unambiguous.  Returns the winning exponent and both deviations.
    """
    t = derivative_overlaps(order)
    offsets = [tup for tup in sorted(t.entries) if tup[0] >= 0]
    vals = np.array([t.entries[tup] for tup in offsets])
    oracle = _oracle_sums(t, offsets, level, 1)
    devs = {expo: float(np.abs(vals * 2.0**expo - oracle).max())
            for expo in (1, 2)}
    winner = min(devs, key=devs.get)
    return {
        "exponent": winner,
        "deviation": devs[winner],
        "rejected_exponent": max(devs, key=devs.get),
        "rejected_deviation": max(devs.values()),
    }


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
    """t in the versioned container format that save_tensor writes and
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


def save_tensor(t: CoeffTensor, path, gamma3: CoeffTensor | None = None):
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


def _parse_header_line(line, key, lineno):
    parts = line.split()
    if len(parts) != 2 or parts[0] != key:
        raise ParseError("malformed header line", line=lineno, expected=key)
    return parts[1]


def load_tensor(path, gamma3: CoeffTensor | None = None) -> CoeffTensor:
    """Read a table written by save_tensor and re-validate its invariants.

    Structural problems (bad header, counts, offsets, metadata that
    contradicts itself) raise a parse error; value-level invariant
    violations raise a corrupt-table error.  gamma3 is passed on to
    validate_tensor, as save_tensor does.
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
