"""Command line driver.

One process per invocation; every subcommand computes, prints to stdout
(or --output), and optionally appends a JSON-line run manifest carrying
parameter sets and sha256 digests of inputs and outputs.  Primary
outputs carry no wall-clock or host state, so identical invocations are
byte-identical; the manifest is the only place timing lives.

Floating values in CSV output are printed with %.17g (full float64
round-trip precision, '.' decimal point always); JSON uses the shortest
exact round-trip rendering.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import sys
import time

import numpy as np
import scipy.sparse

from . import __version__
from .connection import (
    FORMAT_VERSION,
    derivative_overlaps,
    gamma_tensor,
    load_tensor,
    oracle_deviation,
    rescale_tensor,
    save_tensor,
    validate_tensor,
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


def _fmt(x) -> str:
    return "%.17g" % float(x)


def _csv(header: str, rows) -> str:
    """CSV table: ints and strings through str, every other value through _fmt."""
    lines = [header]
    lines += [",".join(str(v) if isinstance(v, (int, str)) else _fmt(v)
                       for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def _json(doc) -> str:
    return json.dumps(doc, indent=2) + "\n"


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise ParseError(f"cannot read input file: {e}", path=path)


def _cache_dir(args) -> str:
    if args.cache:
        return args.cache
    env = os.environ.get("WAVEFIELD_CACHE")
    if env:
        return env
    base = os.environ.get("XDG_CACHE_HOME", os.path.expanduser("~/.cache"))
    return os.path.join(base, "wavefield")


def _cached_tensor(kind: str, order: int, scale: int, cache: str):
    """Fetch a coefficient table through the on-disk cache.

    Cache key is (kind, order, scale, format-version); a hit is re-read
    and re-validated, a miss is computed, validated and stored by
    save_tensor, and returned.

    The standalone invariants do not pin every entry of a four-point
    table (an edit to the central entry keeps it permutation symmetric),
    so gamma4 is checked against its partner, the cached scale-0 gamma3
    table, by the four-point partition rule on every fetch, hit or miss,
    at every scale.  The partner is fetched after the gamma4 table is read
    or solved, so an order the solver refuses caches nothing.
    """
    os.makedirs(cache, exist_ok=True)
    path = os.path.join(cache, f"{kind}-K{order}-s{scale}-v{FORMAT_VERSION}.tbl")
    hit = os.path.exists(path)
    if hit:
        t = load_tensor(path)
    else:
        if kind == "d":
            t = derivative_overlaps(order)
        else:
            t = gamma_tensor(order, 3 if kind == "gamma3" else 4)
        if scale:
            t = rescale_tensor(t, scale)
    g3 = _cached_tensor("gamma3", order, 0, cache)[0] if kind == "gamma4" else None
    if not hit:
        save_tensor(t, path, g3)
    elif g3 is not None:
        validate_tensor(t, g3)
    return t, path


# ---------------------------------------------------------------- filters

def _cmd_filters(args):
    fp = make_filters(args.order)
    if args.format == "json":
        text = _json({"order": fp.order, "h": list(fp.h), "g": list(fp.g)})
    else:
        text = _csv("tap,h,g", zip(range(len(fp.h)), fp.h, fp.g))
    return text, {}, []


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
            "rows": [[float(x), float(v)] for x, v in zip(xs, samp.values)],
        })
    else:
        text = _csv("x,value", zip(xs, samp.values))
    return text, {}, []


# ---------------------------------------------------------------- dwt

def _checked_finite(values, text, path, column=0):
    """values, refused if any is nan or inf by one array check; only then is
    the text scanned for the first non-'#' line with a bad column field."""
    if np.isfinite(values).all():
        return values
    line = next(
        ln for ln, parts in enumerate(map(str.split, text.splitlines()), 1)
        if len(parts) > column and not parts[0].startswith("#")
        and not np.isfinite(float(parts[column]))
    )
    raise ParseError("non-finite value in input", path=path, line=line)


def _parse_plain_values(text, path):
    vals = []
    for ln, raw in enumerate(text.splitlines(), 1):
        s = raw.strip()
        if not s:
            continue
        try:
            vals.append(float(s))
        except ValueError:
            raise ParseError("non-numeric value in input", path=path, line=ln)
    if not vals:
        raise ParseError("empty input", path=path)
    return _checked_finite(np.array(vals), text, path)


def _serialize_pyramid(p: CoeffPyramid, order: int) -> str:
    lines = [
        "# wavefield-pyramid 1",
        f"# order {order} levels {p.levels} length "
        f"{len(p.coarse) * 2 ** p.levels}",
        f"# coarse scale {p.coarse.scale} length {len(p.coarse)}",
    ]
    lines += [_fmt(v) for v in p.coarse.values]
    for i, d in enumerate(p.details, 1):  # finest detail first
        lines.append(f"# detail {i} scale {d.scale} length {len(d)}")
        lines += [_fmt(v) for v in d.values]
    return "\n".join(lines) + "\n"


_PYRAMID_META = re.compile(r"# order (\d+) levels (\d+) length (\d+)")
_PYRAMID_BLOCK = re.compile(r"# (coarse|detail \d+) scale (-?\d+) length (\d+)")


def _parse_pyramid(text, path) -> tuple:
    """Read _serialize_pyramid output back: block 0 is the coarse block,
    block i the detail i, and every declared length matches its values."""
    heads = []  # (line, text, number of values before it) of each '#' line
    vals = []
    for ln, s in enumerate(map(str.strip, text.splitlines()), 1):
        if not s:
            continue
        if s[0] == "#":
            heads.append((ln, s, len(vals)))
        elif len(heads) < 3:
            raise ParseError("values before any block header", path=path,
                             line=ln)
        else:
            try:
                vals.append(float(s))
            except ValueError:
                raise ParseError("non-numeric pyramid value", path=path,
                                 line=ln)
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
    vals = _checked_finite(np.array(vals), text, path)
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
    text_in = _read_text(args.input)
    if args.direction == "forward":
        vals = _parse_plain_values(text_in, args.input)
        pyr = multilevel(CoeffVector(0, vals), fp, args.levels, "forward")
        if args.format == "json":
            out = _json({
                "order": args.order,
                "levels": pyr.levels,
                "coarse": {"scale": pyr.coarse.scale,
                           "values": list(map(float, pyr.coarse.values))},
                "details": [
                    {"scale": d.scale, "values": list(map(float, d.values))}
                    for d in pyr.details
                ],
            })
        else:
            out = _serialize_pyramid(pyr, args.order)
    else:
        order_in, pyr = _parse_pyramid(text_in, args.input)
        if order_in != args.order or pyr.levels != args.levels:
            raise ParseError(
                "pyramid metadata disagrees with the flags",
                file_order=order_in, flag_order=args.order,
                file_levels=pyr.levels, flag_levels=args.levels,
            )
        vec = multilevel(pyr, fp, args.levels, "inverse")
        if args.format == "json":
            out = _json({"order": args.order, "scale": vec.scale,
                         "values": list(map(float, vec.values))})
        else:
            out = "\n".join(_fmt(v) for v in vec.values) + "\n"
    return out, {}, [args.input]


# ---------------------------------------------------------------- coeffs

def _cmd_coeffs(args):
    t, cache_path = _cached_tensor(args.kind, args.order, args.scale,
                                   _cache_dir(args))
    if args.verify_oracle is not None:
        level = args.verify_oracle
        dev = oracle_deviation(t, level)
        if args.format == "json":
            text = _json({"kind": args.kind, "order": args.order,
                          "scale": args.scale, "level": level,
                          "max_oracle_deviation": dev})
        else:
            text = _csv("kind,order,scale,level,max_oracle_deviation",
                        [(args.kind, args.order, args.scale, level, dev)])
        return text, {}, []
    # without verification the table itself is the output, in its
    # canonical container format
    return _read_text(cache_path), {}, []


# ---------------------------------------------------------------- hamiltonian

def _matrix_coo_text(mat) -> str:
    coo = mat.tocsr().sorted_indices().tocoo()
    lines = [f"{coo.shape[0]} {coo.nnz}"]
    lines += [
        f"{r} {c} {_fmt(v)}"
        for r, c, v in zip(coo.row, coo.col, coo.data)
    ]
    return "\n".join(lines) + "\n"


def _cmd_hamiltonian(args):
    cache = _cache_dir(args)
    d_t, _ = _cached_tensor("d", args.order, args.scale, cache)
    g4_t, _ = _cached_tensor("gamma4", args.order, args.scale, cache)
    params = ModelParams(args.mass2, args.coupling, args.gamma)
    basis = FockBasis(args.modes, args.nmax)
    op = build_phi4_hamiltonian(params, d_t, g4_t, basis)
    pairs = lanczos_lowest(op, args.eigs)
    if args.format == "json":
        text = _json({
            "dimension": basis.dimension,
            "eigenvalues": [e for e, _ in pairs],
            "residuals": [r for _, r in pairs],
        })
    else:
        text = _csv("index,eigenvalue,residual",
                    ((i, e, r) for i, (e, r) in enumerate(pairs)))
    files = {}
    if args.dump_matrix:
        files[args.dump_matrix] = _matrix_coo_text(op.matrix)
    return text, files, []


# ---------------------------------------------------------------- flow

def _parse_coo(text, path) -> np.ndarray:
    lines = [(ln, s) for ln, s in enumerate(map(str.strip, text.splitlines()), 1)
             if s]
    if not lines:
        raise ParseError("empty matrix file", path=path)
    head_line, head = lines[0]
    try:
        dim, nnz = map(int, head.split())
    except ValueError:
        raise ParseError("matrix header must be 'dim nnz'", path=path,
                         line=head_line)
    if dim < 0 or nnz < 0:
        raise ParseError("matrix header counts must be nonnegative",
                         path=path, line=head_line)
    if dim > MAX_FLOW_DIM:
        raise ShapeError(f"flow matrices are capped at {MAX_FLOW_DIM}",
                         dim=dim)
    if len(lines) - 1 != nnz:
        raise ParseError(
            f"expected {nnz} entries, found {len(lines) - 1}", path=path
        )
    rows, cols, vals = [], [], []
    for ln, s in lines[1:]:
        try:
            r, c, v = s.split()
            r, c, v = int(r), int(c), float(v)
        except ValueError:
            raise ParseError("matrix entries are 'row col value'", path=path,
                             line=ln)
        if not (0 <= r < dim and 0 <= c < dim):
            raise ParseError("matrix index out of range", path=path, line=ln)
        rows.append(r)
        cols.append(c)
        vals.append(v)
    vals = _checked_finite(np.array(vals), text, path, column=2)
    mat = np.zeros((dim, dim))
    # repeated entries add up in file order; a sum that overflows is left
    # as inf for FlowState to refuse, without a numpy warning
    with np.errstate(over="ignore"):
        np.add.at(mat, (np.array(rows, np.int64), np.array(cols, np.int64)), vals)
    return mat


def _cmd_flow(args):
    h0 = _parse_coo(_read_text(args.input), args.input)
    genspec = "wegner-diagonal" if args.generator == "diag" else "wegner-block"
    if genspec == "wegner-block" and args.partition is None:
        raise ShapeError("--generator block requires --partition")
    state = FlowState(0.0, h0, genspec, args.partition)
    final, trajectory, report = srg_flow(state, args.lambda_end)
    files = {}
    if args.log:
        files[args.log] = _csv("lambda,offdiag_frobenius,max_eigen_drift",
                               trajectory)
    if args.format == "json":
        text = _json({
            "lambda": final.lam,
            "generator": genspec,
            "accepted_steps": report["accepted"],
            "sign_convention_flipped": report["sign_convention_flipped"],
            "matrix": [[float(v) for v in row] for row in final.h_matrix],
        })
    else:
        text = _matrix_coo_text(scipy.sparse.csr_matrix(final.h_matrix))
    return text, files, [args.input]


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
        text = _csv("k,value", rows)
    return text, {}, []


# ---------------------------------------------------------------- plumbing

def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("csv", "json"), default="csv")
    common.add_argument("--output", help="write the primary output here "
                        "instead of stdout")
    common.add_argument("--manifest", help="append a JSON-line run record "
                        "to this file")
    common.add_argument("--cache", help="coefficient cache directory "
                        "(default: $WAVEFIELD_CACHE or the user cache dir)")

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
                        help="connection coefficient tables, cached")
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
        primary, extra_files, input_paths = args.func(args)
    except WavefieldError as e:
        context = "".join(f" {k}={v}" for k, v in e.context.items())
        print(f"{e.name}: {e}{context}", file=sys.stderr)
        return 1
    wall = time.perf_counter() - t0

    outputs = {}
    try:
        if args.output:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(primary)
            outputs[args.output] = _sha256(primary.encode())
        else:
            sys.stdout.write(primary)
            outputs["stdout"] = _sha256(primary.encode())
        for path, text in extra_files.items():
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            outputs[path] = _sha256(text.encode())
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
                "inputs": {
                    path: _sha256(_read_text(path).encode())
                    for path in input_paths
                },
                "outputs": outputs,
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
