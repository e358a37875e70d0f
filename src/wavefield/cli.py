"""Command line driver.

One process per invocation; every subcommand computes, prints to stdout
(or --output), and optionally appends a JSON-line run manifest carrying
parameter sets and sha256 digests of inputs and outputs.  Primary
outputs carry no wall-clock or host state, so identical invocations are
byte-identical; the manifest is the only place timing lives.

Floating values in CSV output are printed with %.17g (full float64
round-trip precision, '.' decimal point always); JSON uses the shortest
exact round-trip rendering.

Bulk text is written and read at array speed, in bounded parts, with
these formats unchanged.  A writer yields its text in parts of at most
_PART_LINES lines, each formatted by one %-operation, and run() writes
the parts one at a time, so no whole output string exists; with
--manifest the same parts feed each output's sha256 digest.
A dwt or flow reader opens its input once, in binary, and reads it
_CHUNK_CHARS bytes at a time; a strict incremental UTF-8 decoder turns
the reads into pieces of whole lines, each parsed in one pass of C-level
iteration into one array, so no whole file is held.  A piece is scanned
line by line only after that pass has failed, or its values hold a nan
or an inf, so every ParseError names the line at fault from the text in
hand, and a byte that is not UTF-8 is named from the decoder's error
offset.  An input is read once: with --manifest the same reads feed its
sha256 digest, which is of the bytes as read.
"""

from __future__ import annotations

import argparse
import codecs
import hashlib
import json
import re
import sys
import time
from itertools import chain, compress, count, repeat
from operator import contains, itemgetter

import numpy as np

from . import __version__
from .connection import (
    derivative_overlaps,
    gamma_tensor,
    oracle_deviation,
    rescale_tensor,
    tensor_text,
)
from .diagnostics import (
    KernelProbe,
    commutator_residual,
    gaussian_probe,
    kernel_projection_error,
    partition_check,
    polynomial_probe,
)
from .errors import ParseError, ShapeError, WavefieldError, WindowingError
from .filters import make_filters
from .fock import (
    FockBasis,
    ModelParams,
    build_phi4_hamiltonian,
    lanczos_lowest,
)
from .flow import MAX_FLOW_DIM, FlowState, srg_flow
from .scaling import derivative_samples, scaling_samples
from .transform import CoeffPyramid, CoeffVector, multilevel

__all__ = ["build_parser", "run", "main"]

_PART_LINES = 2**12  # lines per part a writer yields
_CHUNK_CHARS = 2**16  # bytes a reader reads at a time


def _rows(fmt: str, *columns):
    """One line fmt % (a value from each column) per row, yielded in parts
    of at most _PART_LINES rows, each made by one %-operation; an array
    column is converted to Python scalars a part at a time."""
    for i in range(0, len(columns[0]), _PART_LINES):
        part = [c[i:i + _PART_LINES] for c in columns]
        part = [c.tolist() if isinstance(c, np.ndarray) else c for c in part]
        yield (fmt * len(part[0])) % tuple(chain.from_iterable(zip(*part)))


def _values(values):
    """One %.17g line per value of a float array, in parts."""
    return _rows("%.17g\n", values)


def _csv(header: str, *columns):
    """CSV table of equal-length columns: ints and strings are printed
    through str, every other value through %.17g.  The rule holds value by
    value, so a column mixing the two kinds is converted one value at a
    time; any other column takes one conversion for all its rows.  A
    float64 array goes to _rows as it is, which converts it a part at a
    time."""
    specs, cols = [], []
    for col in columns:
        if isinstance(col, np.ndarray) and col.dtype == np.float64:
            specs.append("%.17g")
            cols.append(col)
            continue
        col = list(col)
        as_str = {issubclass(t, (int, str)) for t in set(map(type, col))}
        if len(as_str) == 2:
            col = [str(v) if isinstance(v, (int, str)) else "%.17g" % float(v)
                   for v in col]
        specs.append("%s" if True in as_str else "%.17g")
        cols.append(col)
    return chain([header + "\n"], _rows(",".join(specs) + "\n", *cols))


def _json(doc) -> str:
    return json.dumps(doc, indent=2) + "\n"


def _write_parts(fh, text, digest=None):
    """Write text, a str or an iterable of str parts, to fh one part at a
    time; each part's UTF-8 bytes update digest, when one is given."""
    for part in (text,) if isinstance(text, str) else text:
        fh.write(part)
        if digest is not None:
            digest.update(part.encode())
    return digest


def _line_chunks(path: str, digest=None):
    """The lines of the UTF-8 file at path in consecutive pieces, each with
    the number of its first line.  The file is opened once, in binary, and
    read _CHUNK_CHARS bytes at a time; each read updates digest, when one
    is given, and a strict incremental decoder turns it into text.  The
    text is cut just after its last '\n', or its last '\r' with a character
    after it, and the rest is carried on to the next read, so no cut
    splits a '\r\n' and the pieces joined are exactly the splitlines() of
    the whole text.  A failed read is a ParseError, and so is a byte that
    is not UTF-8, which is named by its line."""
    decode = codecs.getincrementaldecoder("utf-8")().decode
    first, rest = 1, ""
    try:
        with open(path, "rb") as fh:
            for data in iter(lambda: fh.read(_CHUNK_CHARS), b""):
                if digest is not None:
                    digest.update(data)
                text = rest + decode(data)
                cut = max(text.rfind("\n"), text.rfind("\r", 0, -1)) + 1
                lines, rest = text[:cut].splitlines(), text[cut:]
                if lines:
                    yield first, lines
                    first += len(lines)
            rest += decode(b"", True)
    except OSError as e:
        raise ParseError(f"cannot read input file: {e}", path=path)
    except UnicodeDecodeError as e:
        # the bad byte's line is first plus the line breaks before it, in
        # the rest held back and the part of this read that decodes; with
        # one character put after them they split into one line more
        before = rest + e.object[:e.start].decode()
        raise ParseError("input is not UTF-8 text", path=path,
                         line=first + len((before + ".").splitlines()) - 1)
    if rest:
        yield first, rest.splitlines()


def _table(kind: str, order: int, scale: int):
    """The shipped scale-0 table of a kind ('d', 'gamma3' or 'gamma4') and
    order, carried to the scale."""
    if kind == "d":
        t = derivative_overlaps(order)
    else:
        t = gamma_tensor(order, 3 if kind == "gamma3" else 4)
    return rescale_tensor(t, scale) if scale else t


# ---------------------------------------------------------------- filters

def _cmd_filters(args):
    fp = make_filters(args.order)
    if args.format == "json":
        text = _json({"order": fp.order, "h": list(fp.h), "g": list(fp.g)})
    else:
        text = _csv("tap,h,g", range(len(fp.h)), fp.h, fp.g)
    return text, {}, {}


# ---------------------------------------------------------------- scalfun

def _cmd_scalfun(args):
    samp = (derivative_samples if args.derivative else scaling_samples)(
        args.order, args.level
    )
    xs = samp.grid()
    if args.format == "json":
        text = _json({
            "order": args.order,
            "level": args.level,
            "derivative": bool(args.derivative),
            "rows": np.column_stack((xs, samp.values)).tolist(),
        })
    else:
        text = _csv("x,value", xs, samp.values)
    return text, {}, {}


# ---------------------------------------------------------------- dwt

def _nonfinite(values, lines, first, path, column=0):
    """None when every value parsed from a piece's lines is finite, by one
    array check; else the error naming the first of the lines, counting
    from first, whose column field is a nan or an inf.  A reader keeps the
    first such error and raises it once the checks before it have passed."""
    if np.isfinite(values).all():
        return None
    for ln, s in enumerate(lines, first):
        fields = s.split()
        if len(fields) > column and not np.isfinite(float(fields[column])):
            return ParseError("non-finite value in input", path=path, line=ln)


def _floats(lines) -> np.ndarray:
    """float() of every nonblank line, stripped; ValueError if one is refused."""
    return np.fromiter(map(float, filter(None, map(str.strip, lines))), float)


def _first_refused(lines, first_line) -> int:
    """Number of the first nonblank line, counting from first_line, that
    float() refuses: the rescan that names the line at fault once _floats
    has failed."""
    for ln, s in enumerate(map(str.strip, lines), first_line):
        if s:
            try:
                float(s)
            except ValueError:
                return ln


def _stored(buf, n, values) -> int:
    """n + len(values), once values are written into buf from index n on,
    buf first grown in place to the next power of two that holds them."""
    end = n + len(values)
    if end > len(buf):
        buf.resize(1 << (end - 1).bit_length(), refcheck=False)
    buf[n:end] = values
    return end


def _parse_plain_values(path, digest=None):
    buf, n, nonfinite = np.empty(0), 0, None
    for first, lines in _line_chunks(path, digest):
        try:
            values = _floats(lines)
        except ValueError:
            raise ParseError("non-numeric value in input", path=path,
                             line=_first_refused(lines, first))
        nonfinite = nonfinite or _nonfinite(values, lines, first, path)
        n = _stored(buf, n, values)
    if not n:
        raise ParseError("empty input", path=path)
    if nonfinite:
        raise nonfinite
    buf.setflags(write=False)
    return buf[:n]


def _serialize_pyramid(p: CoeffPyramid, order: int):
    """The pyramid as text in parts: '#' lines, and each block's values."""
    yield "# wavefield-pyramid 1\n"
    yield (f"# order {order} levels {p.levels} length "
           f"{len(p.coarse) * 2 ** p.levels}\n")
    yield f"# coarse scale {p.coarse.scale} length {len(p.coarse)}\n"
    yield from _values(p.coarse.values)
    for i, d in enumerate(p.details, 1):  # finest detail first
        yield f"# detail {i} scale {d.scale} length {len(d)}\n"
        yield from _values(d.values)


_PYRAMID_META = re.compile(r"# order (\d+) levels (\d+) length (\d+)")
_PYRAMID_BLOCK = re.compile(r"# (coarse|detail \d+) scale (-?\d+) length (\d+)")


def _parse_pyramid(path, digest=None) -> tuple:
    """Read _serialize_pyramid output back: block 0 is the coarse block,
    block i the detail i, and every declared length matches its values.

    Only a line holding '#' can be a '#' line, so in each chunk those few
    are found by one scan, and the value lines between two of them are
    parsed whole.  Every block is a read-only view of one array."""
    heads = []  # (line, text, number of values before it) of each '#' line
    buf, n, nonfinite = np.empty(0), 0, None
    for first, lines in _line_chunks(path, digest):
        marks = [i for i in compress(count(), map(contains, lines, repeat("#")))
                 if lines[i].lstrip().startswith("#")]
        for head, end in zip([-1, *marks], [*marks, len(lines)]):
            if head >= 0:
                heads.append((first + head, lines[head].strip(), n))
            run = lines[head + 1:end]
            if len(heads) < 3 and any(map(str.strip, run)):
                raise ParseError("values before any block header", path=path,
                                 line=next(ln for ln, s in
                                           enumerate(run, first + head + 1)
                                           if s.strip()))
            try:
                values = _floats(run)
            except ValueError:
                raise ParseError("non-numeric pyramid value", path=path,
                                 line=_first_refused(run, first + head + 1))
            nonfinite = nonfinite or _nonfinite(values, run, first + head + 1,
                                                path)
            n = _stored(buf, n, values)
    if len(heads) < 2 or heads[0][1] != "# wavefield-pyramid 1":
        raise ParseError("missing pyramid header", path=path)
    meta = _PYRAMID_META.fullmatch(heads[1][1])
    if meta is None:
        raise ParseError("malformed pyramid metadata", path=path,
                         line=heads[1][0])
    order, levels, length = map(int, meta.groups())
    if len(heads) - 2 != levels + 1:
        raise ParseError(
            f"expected {levels + 1} blocks, found {len(heads) - 2}", path=path
        )
    if nonfinite:
        raise nonfinite
    buf.setflags(write=False)
    vals = buf[:n]
    ends = [first for *_, first in heads[3:]] + [len(vals)]
    vecs = []
    for i, ((ln, s, first), end) in enumerate(zip(heads[2:], ends)):
        name = f"detail {i}" if i else "coarse"
        block = _PYRAMID_BLOCK.fullmatch(s)
        if block is None or block[1] != name:
            raise ParseError(f"expected a '# {name} scale S length N' "
                             "block header", path=path, line=ln)
        if end - first != int(block[3]):
            raise ParseError("block length disagrees with its values",
                             path=path, line=ln, length=int(block[3]),
                             values=end - first)
        vecs.append(CoeffVector(int(block[2]), vals[first:end]))
    if len(vals) != length:
        raise ParseError("pyramid length disagrees with its values", path=path,
                         line=heads[1][0], length=length, values=len(vals))
    return order, CoeffPyramid(vecs[0], tuple(vecs[1:]))


def _cmd_dwt(args):
    fp = make_filters(args.order)
    digest = hashlib.sha256() if args.manifest else None
    # the readers hold one chunk of the input text at a time, and the
    # parsed signal is held only by its vector, which takes it uncopied
    if args.direction == "forward":
        pyr = multilevel(CoeffVector(0, _parse_plain_values(args.input, digest)),
                         fp, args.levels, "forward")
        if args.format == "json":
            out = _json({
                "order": args.order,
                "levels": pyr.levels,
                "coarse": {"scale": pyr.coarse.scale,
                           "values": pyr.coarse.values.tolist()},
                "details": [
                    {"scale": d.scale, "values": d.values.tolist()}
                    for d in pyr.details
                ],
            })
        else:
            out = _serialize_pyramid(pyr, args.order)
    else:
        order_in, pyr = _parse_pyramid(args.input, digest)
        if order_in != args.order or pyr.levels != args.levels:
            raise ParseError(
                "pyramid metadata disagrees with the flags",
                file_order=order_in, flag_order=args.order,
                file_levels=pyr.levels, flag_levels=args.levels,
            )
        vec = multilevel(pyr, fp, args.levels, "inverse")
        if args.format == "json":
            out = _json({"order": args.order, "scale": vec.scale,
                         "values": vec.values.tolist()})
        else:
            out = _values(vec.values)
    return out, {}, {args.input: digest}


# ---------------------------------------------------------------- coeffs

def _cmd_coeffs(args):
    t = _table(args.kind, args.order, args.scale)
    if args.verify_oracle is not None:
        level = args.verify_oracle
        dev = oracle_deviation(t, level)
        if args.format == "json":
            text = _json({"kind": args.kind, "order": args.order,
                          "scale": args.scale, "level": level,
                          "max_oracle_deviation": dev})
        else:
            text = _csv("kind,order,scale,level,max_oracle_deviation",
                        [args.kind], [args.order], [args.scale], [level], [dev])
        return text, {}, {}
    # without verification the table itself is the output, in its
    # canonical container format
    return tensor_text(t), {}, {}


# ---------------------------------------------------------------- hamiltonian

def _coo_text(dim, rows, cols, vals):
    """'dim nnz' and one 'row col value' line per entry, in parts."""
    return chain([f"{dim} {len(vals)}\n"],
                 _rows("%d %d %.17g\n", rows, cols, vals))


def _dense_coo_text(mat):
    """A dense matrix's nonzero entries in the same row-major order; like
    the sparse form of the matrix it leaves out both signed zeros."""
    rows, cols = np.nonzero(mat)
    return _coo_text(mat.shape[0], rows, cols, mat[rows, cols])


def _cmd_hamiltonian(args):
    params = ModelParams(args.mass2, args.coupling, args.gamma)
    basis = FockBasis(args.modes, args.nmax)
    d_t = _table("d", args.order, args.scale)
    # zero coupling reads neither gamma4 nor its gamma3 partner
    g4_t = _table("gamma4", args.order, args.scale) if args.coupling else None
    op = build_phi4_hamiltonian(params, d_t, g4_t, basis)
    pairs = lanczos_lowest(op, args.eigs)
    if args.format == "json":
        text = _json({
            "dimension": basis.dimension,
            "eigenvalues": [e for e, _ in pairs],
            "residuals": [r for _, r in pairs],
        })
    else:
        text = _csv("index,eigenvalue,residual", range(len(pairs)), *zip(*pairs))
    files = {}
    if args.dump_matrix:
        files[args.dump_matrix] = _coo_text(basis.dimension, *op.entries())
    return text, files, {}


# ---------------------------------------------------------------- flow

def _coo_entry_error(lines, first, dim, path) -> ParseError:
    """The error of the first entry line, counting from first, that is not
    'row col value' or indexes outside the matrix: a failed piece's rescan."""
    for ln, s in filter(itemgetter(1), enumerate(map(str.strip, lines), first)):
        try:
            r, c, v = s.split()
            r, c, v = int(r), int(c), float(v)
        except ValueError:
            return ParseError("matrix entries are 'row col value'", path=path,
                              line=ln)
        if not (0 <= r < dim and 0 <= c < dim):
            return ParseError("matrix index out of range", path=path, line=ln)


def _coo_entries(entries, dim):
    """Flat indices row * dim + col and values of the 'row col value' entry
    lines; ValueError if one is malformed or indexes outside the matrix."""
    if set(map(len, map(str.split, entries))) - {3}:
        raise ValueError("an entry line without three fields")
    fields = " ".join(entries).split()
    rows, cols = list(map(int, fields[0::3])), list(map(int, fields[1::3]))
    if rows and not (0 <= min(rows) and max(rows) < dim
                     and 0 <= min(cols) and max(cols) < dim):
        raise ValueError("an entry index outside the matrix")
    return (np.array(rows, np.int64) * dim + cols,
            np.fromiter(map(float, fields[2::3]), float))


def _parse_coo(path, digest=None) -> np.ndarray:
    """The matrix of a 'dim nnz' file, its entries read a piece at a time
    into index and value arrays grown by _stored up to nnz entries.  A bad
    header is named at once, then a wrong entry count, the first bad entry,
    a nan or an inf."""
    # the header's entry count; the errors of the first bad entry and the
    # first nan or inf
    nnz = bad = nonfinite = None
    found = 0  # nonblank lines after the header
    index, vals = np.empty(0, np.int64), np.empty(0)
    for first, lines in _line_chunks(path, digest):
        if nnz is None:
            at = next((i for i, s in enumerate(lines) if s.strip()), None)
            if at is None:
                continue
            try:
                dim, nnz = map(int, lines[at].split())
            except ValueError:
                raise ParseError("matrix header must be 'dim nnz'", path=path,
                                 line=first + at)
            if dim < 0 or nnz < 0:
                raise ParseError("matrix header counts must be nonnegative",
                                 path=path, line=first + at)
            if dim > MAX_FLOW_DIM:
                raise ShapeError(f"flow matrices are capped at {MAX_FLOW_DIM}",
                                 dim=dim)
            first, lines = first + at + 1, lines[at + 1:]
        entries = list(filter(None, map(str.strip, lines)))
        end = found + len(entries)
        if bad is None and end <= nnz:
            try:
                flat, values = _coo_entries(entries, dim)
            except ValueError:
                bad = _coo_entry_error(lines, first, dim, path)
            else:
                nonfinite = nonfinite or _nonfinite(values, lines, first, path,
                                                    column=2)
                _stored(index, found, flat)
                _stored(vals, found, values)
        found = end
    if nnz is None:
        raise ParseError("empty matrix file", path=path)
    if found != nnz:
        raise ParseError(f"expected {nnz} entries, found {found}", path=path)
    if bad or nonfinite:
        raise bad or nonfinite
    # repeated entries add up in file order from 0.0, as np.add.at on a
    # zero matrix adds them; a sum that overflows is left as inf for
    # FlowState to refuse.  With no entries bincount counts in integers.
    mat = np.bincount(index[:found], vals[:found], dim * dim)
    return mat.astype(float, copy=False).reshape(dim, dim)


def _cmd_flow(args):
    digest = hashlib.sha256() if args.manifest else None
    h0 = _parse_coo(args.input, digest)
    genspec = "wegner-diagonal" if args.generator == "diag" else "wegner-block"
    if genspec == "wegner-block" and args.partition is None:
        raise ShapeError("--generator block requires --partition")
    state = FlowState(0.0, h0, genspec, args.partition)
    final, trajectory, report = srg_flow(state, args.lambda_end)
    files = {}
    if args.log:
        files[args.log] = _csv("lambda,offdiag_frobenius,max_eigen_drift",
                               *zip(*trajectory))
    if args.format == "json":
        text = _json({
            "lambda": final.lam,
            "generator": genspec,
            "accepted_steps": report["accepted"],
            "sign_convention_flipped": report["sign_convention_flipped"],
            "matrix": final.h_matrix.tolist(),
        })
    else:
        text = _dense_coo_text(final.h_matrix)
    return text, files, {args.input: digest}


# ---------------------------------------------------------------- diagnose

def _parse_probe_function(text):
    kind, _, rest = text.partition(":")
    try:
        if kind == "poly":
            return polynomial_probe(int(rest))
        if kind == "gauss":
            c, w = rest.split(",")
            return gaussian_probe(float(c), float(w))
    except (ValueError, WavefieldError) as e:
        raise argparse.ArgumentTypeError(f"bad probe function '{text}': {e}")
    raise argparse.ArgumentTypeError(
        f"unknown probe function '{text}' (use poly:d or gauss:c,w)"
    )


def _cmd_diagnose(args):
    fn = args.function
    # the requested scale's probe is built first, so a scale KernelProbe
    # refuses fails with its own error rather than as an empty sweep
    probes = {k: KernelProbe(args.order, k, max(k + 4, 12))
              for k in (args.scale, *range(args.scale))}
    rows = []
    for k, probe in sorted(probes.items()):
        try:
            if args.probe == "partition":
                val = partition_check(probe)
            elif args.probe == "projection":
                val = kernel_projection_error(probe, fn)
            else:
                val = commutator_residual(probe, fn, fn)
        except WindowingError:
            # the probe function leaks into the seam buffer at this
            # scale; coarser rows are skipped rather than reported wrong
            continue
        rows.append((k, val))
    if not rows:
        raise WindowingError(
            "probe function violates the window at every requested scale",
            scale=args.scale,
        )
    if args.format == "json":
        text = _json({
            "order": args.order,
            "probe": args.probe,
            "function": getattr(fn, "label", None),
            "rows": [[k, v] for k, v in rows],
        })
    else:
        text = _csv("k,value", *zip(*rows))
    return text, {}, {}


# ---------------------------------------------------------------- plumbing

def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("csv", "json"), default="csv")
    common.add_argument("--output", help="write the primary output here "
                        "instead of stdout")
    common.add_argument("--manifest", help="append a JSON-line run record "
                        "to this file")
    # accepted and read by nothing: the tables ship with the package, and
    # the benchmark's jobs still pass --cache
    common.add_argument("--cache", help=argparse.SUPPRESS)

    p = argparse.ArgumentParser(
        prog="wavefield",
        description="Daubechies wavelet discretization toolkit",
    )
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="cmd", required=True)

    sp = sub.add_parser("filters", parents=[common],
                        help="print the order-K filter taps h and g")
    sp.add_argument("--order", type=int, required=True)
    sp.set_defaults(func=_cmd_filters)

    sp = sub.add_parser("scalfun", parents=[common],
                        help="scaling function samples on a dyadic grid")
    sp.add_argument("--order", type=int, required=True)
    sp.add_argument("--level", type=int, required=True)
    sp.add_argument("--derivative", action="store_true")
    sp.set_defaults(func=_cmd_scalfun)

    sp = sub.add_parser("dwt", parents=[common],
                        help="periodic wavelet transform of a CSV vector")
    sp.add_argument("--order", type=int, required=True)
    sp.add_argument("--levels", type=int, required=True)
    sp.add_argument("--input", required=True)
    sp.add_argument("--direction", choices=("forward", "inverse"),
                    required=True)
    sp.set_defaults(func=_cmd_dwt)

    sp = sub.add_parser("coeffs", parents=[common],
                        help="connection coefficient tables")
    sp.add_argument("--order", type=int, required=True)
    sp.add_argument("--kind", choices=("d", "gamma3", "gamma4"),
                    required=True)
    sp.add_argument("--scale", type=int, default=0)
    sp.add_argument("--verify-oracle", type=int, metavar="LEVEL",
                    help="report the max deviation from the level-LEVEL "
                    "quadrature oracle instead of printing the table")
    sp.set_defaults(func=_cmd_coeffs)

    sp = sub.add_parser("hamiltonian", parents=[common],
                        help="truncated phi^4 Hamiltonian spectra")
    sp.add_argument("--order", type=int, required=True)
    sp.add_argument("--scale", type=int, default=0)
    sp.add_argument("--modes", type=int, required=True)
    sp.add_argument("--nmax", type=int, required=True)
    sp.add_argument("--mass2", type=float, required=True)
    sp.add_argument("--lambda", dest="coupling", type=float, required=True)
    sp.add_argument("--gamma", type=float, default=0.0,
                    help="oscillator parameter; default sqrt(mass2)")
    sp.add_argument("--eigs", type=int, required=True)
    sp.add_argument("--dump-matrix", metavar="PATH",
                    help="also write the sparse matrix (coordinate format)")
    sp.set_defaults(func=_cmd_hamiltonian)

    sp = sub.add_parser("flow", parents=[common],
                        help="SRG flow on a symmetric matrix")
    sp.add_argument("--input", required=True,
                    help="coordinate-format matrix file (header 'dim nnz')")
    sp.add_argument("--generator", choices=("diag", "block"), required=True)
    sp.add_argument("--partition", type=int)
    sp.add_argument("--lambda-end", dest="lambda_end", type=float,
                    required=True)
    sp.add_argument("--log", help="write the trajectory CSV here")
    sp.set_defaults(func=_cmd_flow)

    sp = sub.add_parser("diagnose", parents=[common],
                        help="kernel diagnostics swept over scales 0..k")
    sp.add_argument("--order", type=int, required=True)
    sp.add_argument("--scale", type=int, required=True)
    sp.add_argument("--probe", choices=("partition", "projection",
                                        "commutator"), required=True)
    sp.add_argument("--function", type=_parse_probe_function,
                    default="gauss:12,1",
                    help="poly:d or gauss:center,width (default gauss:12,1)")
    sp.set_defaults(func=_cmd_diagnose)
    return p


def _manifest_value(v):
    if isinstance(v, (str, int, float, bool)) or v is None:
        return v
    return getattr(v, "label", str(v))


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 2
    t0 = time.perf_counter()
    try:
        primary, extra_files, inputs = args.func(args)
    except WavefieldError as e:
        context = "".join(f" {k}={v}" for k, v in e.context.items())
        print(f"{e.name}: {e}{context}", file=sys.stderr)
        return 1

    # the outputs are digested only for the manifest
    def digest():
        return hashlib.sha256() if args.manifest else None

    outputs = {}
    try:
        # a writer's parts are formatted as they are written, so the wall
        # time is taken once every output is out
        if args.output:
            with open(args.output, "w", encoding="utf-8") as fh:
                outputs[args.output] = _write_parts(fh, primary, digest())
        else:
            outputs["stdout"] = _write_parts(sys.stdout, primary, digest())
        for path, text in extra_files.items():
            with open(path, "w", encoding="utf-8") as fh:
                outputs[path] = _write_parts(fh, text, digest())
        wall = time.perf_counter() - t0
        if args.manifest:
            params = {
                k: _manifest_value(v)
                for k, v in vars(args).items()
                if k not in ("func",)
            }
            record = {
                "version": __version__,
                "subcommand": args.cmd,
                "parameters": params,
                "inputs": {path: d.hexdigest() for path, d in inputs.items()},
                "outputs": {path: d.hexdigest() for path, d in outputs.items()},
                "wall_time_s": round(wall, 6),
            }
            with open(args.manifest, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(record, sort_keys=True) + "\n")
    except OSError as e:
        print(f"io: {e}", file=sys.stderr)
        return 1
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
