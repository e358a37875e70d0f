"""Seeded job lists for the three benchmark workloads, and their output checks.

A job list is plain JSON: the orchestrator builds it once per run from
(workload, seed), writes the input files it needs, and every worker pass
executes the same list.  Paths inside a job are relative to the worker's
private pass directory, which holds its own `cache/` and `out/`; input
files generated here live one level up, in `../inputs/`.

Job ops:
  cli       argv for `wavefield.cli.run`
  readback  load the order-K tables written by the build jobs, check the gamma-4
            partition rule against gamma-3, run `recursion_residual`
  split     `split_tensors` of the scale-1 K=3 tables on N sites
  srg       `srg_flow` on the matrix of an earlier split job

Checks run after the timed job loop and never call the code under test
for the value they check, except where the issue asks for the library's
own validator (`validate_tensor`, `recursion_residual`).
"""

from __future__ import annotations

import hashlib
import math
import os
import random

import numpy as np

WORKLOADS = ("tables", "spectrum", "multiscale")

# layers each workload must reach; a traced run with zero calls into one
# of them fails, so a renamed import cannot silently empty a layer
EXPECTED_LAYERS = {
    "tables": ("cli", "filters", "connection"),
    "spectrum": ("cli", "connection", "fock"),
    "multiscale": ("cli", "filters", "connection", "fock", "flow", "transform",
                   "scaling", "diagnostics"),
}

# ---------------------------------------------------------------- tables

TABLE_ORDERS = (2, 3, 4, 5)
# criterion-06 oracle levels and tolerances: product tables at level 12
# within 1e-6, the derivative table at level 14 within 1e-4
ORACLE_LEVEL = {"d": 14, "gamma3": 12, "gamma4": 12}
ORACLE_TOL = {"d": 1e-4, "gamma3": 1e-6, "gamma4": 1e-6}
# The README documents these three as quadrature-limited: the tables are
# exact fixed points but the scaling functions are too rough for the
# Riemann-sum oracle to converge that far at the pinned levels.  They are
# reported, not counted as failures; the ceiling (10x the documented
# deviation) still catches a table that is actually wrong.
ORACLE_EXEMPT = {("gamma3", 2): 1.2e-5, ("gamma4", 2): 2.8e-5, ("d", 3): 1.8e-2}
# K=5 gamma-4 recursion_residual is left out: 41 s in pure Python
RESIDUAL_SKIP = {("gamma4", 5)}
RESIDUAL_TOL = 1e-12
SUM_RULE_TOL = 1e-10

# ---------------------------------------------------------------- spectrum

# (order, modes, nmax); all dimensions > 128, so every job takes the
# sparse ARPACK path
SPECTRUM_LATTICES = ((3, 8, 2), (3, 8, 2), (3, 6, 3), (3, 6, 3), (4, 6, 3),
                     (3, 5, 4), (3, 5, 4), (3, 4, 6), (3, 4, 6))
# (mass^2, lambda); a seed deals the nine points to the nine jobs, so
# every run covers the whole grid and only the pairing varies
SPECTRUM_GRID = tuple((m, l) for m in (0.5, 1.0, 2.0) for l in (0.1, 0.3, 1.0))

# ---------------------------------------------------------------- multiscale

# dim 125 stays on the dense eigensolver path, dim 256 goes through ARPACK
MULTISCALE_LATTICES = ((3, 3, 4), (3, 4, 3))
# one point per seed, shared by both lattices; the four points give
# flow runs of nearly equal cost (their step counts differ by < 10%)
MULTISCALE_GRID = ((1.0, 0.1), (1.0, 0.125), (1.25, 0.3), (2.0, 1.0))
SPLIT_SITES = (32, 64)
SPLIT_LAMBDA = 0.05
FLOW_LAMBDA = 0.001
DIAGNOSE_ORDERS = (3, 4, 6)
DIAGNOSE_SCALE = 4
PROBE_FUNCTIONS = ("gauss:12,1", "gauss:11.5,1", "gauss:12.5,0.8")
DWT_LENGTHS = (16, 18)
DWT_ORDERS = (3, 4, 5)
DWT_LEVELS = 8
SCALFUN_ORDER, SCALFUN_LEVEL = 3, 14

DRIFT_TOL = 1e-8           # eigenvalue drift over max(1, |eig|_max)
OFF_NORM_SLACK = 1e-12     # relative growth allowed per logged step
TRANSFORM_TOL = 1e-12      # round trip and Parseval, relative to |x|
MASS_TOL = 1e-12
PARTITION_TOL = 1e-10
SPECTRUM_RTOL = 1e-9       # |e - ref| <= rtol * max(1, |ref|)

SETUP_TABLES = {
    "tables": (),
    "spectrum": tuple((k, kind, 0) for k in (3, 4) for kind in ("d", "gamma4")),
    "multiscale": tuple((3, kind, s) for s in (0, 1) for kind in ("d", "gamma4")),
}


def lattice_key(order, modes, nmax):
    return f"K{order}-modes{modes}-nmax{nmax}"


def point_key(mass2, coupling):
    return f"{mass2!r},{coupling!r}"


def _common(out):
    return ["--cache", "cache", "--output", out]


def _out(job_id, ext="txt"):
    return f"out/{job_id}.{ext}"


def _coeffs_argv(order, kind, scale=0, out=None):
    return ["coeffs", "--order", str(order), "--kind", kind,
            "--scale", str(scale)] + _common(out or setup_table(kind, order, scale))


def setup_table(kind, order, scale):
    """Where set-up keeps a copy of a warm table (the coeffs primary output)."""
    return f"out/setup-{kind}-K{order}-s{scale}.tbl"


def setup_argvs(workload):
    """CLI calls that fill the workload's warm table cache."""
    return [_coeffs_argv(k, kind, s) for k, kind, s in SETUP_TABLES[workload]]


def hamiltonian_argv(order, modes, nmax, mass2, coupling, out, dump=None):
    """`wavefield hamiltonian` for the lowest four eigenvalues."""
    argv = ["hamiltonian", "--order", str(order), "--modes", str(modes),
            "--nmax", str(nmax), "--mass2", repr(mass2),
            "--lambda", repr(coupling), "--eigs", "4"] + _common(out)
    if dump:
        argv += ["--dump-matrix", dump]
    return argv


def _kinds(order):
    return (["d"] if order >= 3 else []) + ["gamma3", "gamma4"]


def _tables_jobs(rng):
    jobs = []
    orders = list(range(1, 13))
    rng.shuffle(orders)
    for k in orders:
        jid = f"filters-K{k}"
        jobs.append({"id": jid, "op": "cli",
                     "argv": ["filters", "--order", str(k)] + _common(_out(jid)),
                     "check": {"type": "filters", "order": k}})
    for phase in ("build", "oracle", "readback"):
        orders = list(TABLE_ORDERS)
        rng.shuffle(orders)
        for k in orders:
            if phase == "readback":
                # the tables come back from the build jobs' primary
                # output, which is the canonical container format
                jobs.append({"id": f"readback-K{k}", "op": "readback",
                             "order": k,
                             "tables": {kind: _out(f"build-{kind}-K{k}")
                                        for kind in _kinds(k)},
                             "check": {"type": "readback"}})
                continue
            for kind in _kinds(k):
                jid = f"{phase}-{kind}-K{k}"
                argv = _coeffs_argv(k, kind, out=_out(jid))
                check = {"type": "table", "kind": kind, "order": k}
                if phase == "oracle":
                    argv += ["--verify-oracle", str(ORACLE_LEVEL[kind])]
                    check = {"type": "oracle", "kind": kind, "order": k}
                jobs.append({"id": jid, "op": "cli", "argv": argv,
                             "check": check})
    return jobs


def _spectrum_jobs(rng):
    points = list(SPECTRUM_GRID)
    rng.shuffle(points)
    jobs = []
    for i, ((k, modes, nmax), (m2, lam)) in enumerate(zip(SPECTRUM_LATTICES, points)):
        jid = f"ham{i}-{lattice_key(k, modes, nmax)}"
        jobs.append({"id": jid, "op": "cli",
                     "argv": hamiltonian_argv(k, modes, nmax, m2, lam, _out(jid)),
                     "check": {"type": "spectrum",
                               "lattice": lattice_key(k, modes, nmax),
                               "point": point_key(m2, lam)}})
    return jobs


def _multiscale_jobs(rng, signals):
    jobs = []
    for n in SPLIT_SITES:
        jobs.append({"id": f"split-N{n}", "op": "split", "sites": n,
                     "check": {"type": "none"}})
        for gen in ("wegner-block", "wegner-diagonal"):
            jobs.append({"id": f"srg-N{n}-{gen}", "op": "srg",
                         "source": f"split-N{n}", "generator": gen,
                         "lambda_end": SPLIT_LAMBDA,
                         "check": {"type": "srg"}})
    m2, lam = rng.choice(MULTISCALE_GRID)
    for k, modes, nmax in MULTISCALE_LATTICES:
        key = lattice_key(k, modes, nmax)
        hid = f"ham-{key}"
        dump = _out(hid, "coo")
        jobs.append({"id": hid, "op": "cli",
                     "argv": hamiltonian_argv(k, modes, nmax, m2, lam, _out(hid), dump),
                     "check": {"type": "spectrum", "lattice": key,
                               "point": point_key(m2, lam)}})
        dim = (nmax + 1) ** modes
        for gen in ("diag", "block"):
            fid = f"flow-{key}-{gen}"
            argv = ["flow", "--input", dump, "--generator", gen,
                    "--lambda-end", repr(FLOW_LAMBDA),
                    "--log", _out(fid, "log.csv")] + _common(_out(fid, "coo"))
            if gen == "block":
                argv += ["--partition", str(dim // 2)]
            jobs.append({"id": fid, "op": "cli", "argv": argv,
                         "check": {"type": "flow", "input": dump,
                                   "output": _out(fid, "coo"),
                                   "log": _out(fid, "log.csv"),
                                   "generator": gen, "partition": dim // 2}})
    function = rng.choice(PROBE_FUNCTIONS)
    for k in DIAGNOSE_ORDERS:
        for probe in ("partition", "projection", "commutator"):
            jid = f"diagnose-K{k}-{probe}"
            jobs.append({"id": jid, "op": "cli",
                         "argv": ["diagnose", "--order", str(k), "--scale",
                                  str(DIAGNOSE_SCALE), "--probe", probe,
                                  "--function", function] + _common(_out(jid)),
                         "check": {"type": "diagnose", "probe": probe}})
    order = rng.choice(DWT_ORDERS)
    for length, path in zip(DWT_LENGTHS, signals):
        fwd, inv = f"dwt-2^{length}-forward", f"dwt-2^{length}-inverse"
        base = ["dwt", "--order", str(order), "--levels", str(DWT_LEVELS)]
        jobs.append({"id": fwd, "op": "cli",
                     "argv": base + ["--input", path, "--direction", "forward"]
                     + _common(_out(fwd)),
                     "check": {"type": "parseval", "signal": path}})
        jobs.append({"id": inv, "op": "cli",
                     "argv": base + ["--input", _out(fwd), "--direction", "inverse"]
                     + _common(_out(inv)),
                     "check": {"type": "roundtrip", "signal": path}})
    jid = "scalfun"
    jobs.append({"id": jid, "op": "cli",
                 "argv": ["scalfun", "--order", str(SCALFUN_ORDER), "--level",
                          str(SCALFUN_LEVEL)] + _common(_out(jid)),
                 "check": {"type": "mass", "level": SCALFUN_LEVEL}})
    return jobs


def build(workload, seed, inputs_dir):
    """Job list for one run; writes any input files under inputs_dir."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "tables":
        return _tables_jobs(rng)
    if workload == "spectrum":
        return _spectrum_jobs(rng)
    signals = []
    gen = np.random.default_rng(seed)
    for length in DWT_LENGTHS:
        name = f"signal-2^{length}.csv"
        x = gen.standard_normal(2**length)
        with open(os.path.join(inputs_dir, name), "w", encoding="utf-8") as fh:
            fh.write("\n".join("%.17g" % v for v in x) + "\n")
        signals.append(f"../inputs/{name}")
    return _multiscale_jobs(rng, signals)


# ---------------------------------------------------------------- outputs

def output_paths(job):
    """Files a CLI job writes: --output, --dump-matrix, --log."""
    argv = job.get("argv", [])
    return [argv[i + 1] for i, a in enumerate(argv)
            if a in ("--output", "--dump-matrix", "--log")]


def input_paths(job):
    argv = job.get("argv", [])
    return [argv[i + 1] for i, a in enumerate(argv) if a == "--input"]


def digest(jobs):
    """sha256 over every CLI output file, in job order (cwd = pass dir)."""
    h = hashlib.sha256()
    for job in jobs:
        for path in output_paths(job):
            h.update(path.encode() + b"\0")
            if os.path.exists(path):
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def _csv_rows(path):
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    return [ln.split(",") for ln in lines[1:] if ln]


def _read_values(path):
    with open(path, encoding="utf-8") as fh:
        return np.array([float(s) for s in fh.read().split()])


def _read_coo(path):
    with open(path, encoding="utf-8") as fh:
        head, *rest = fh.read().splitlines()
    dim = int(head.split()[0])
    mat = np.zeros((dim, dim))
    if rest:
        ent = np.loadtxt(rest, ndmin=2)
        np.add.at(mat, (ent[:, 0].astype(int), ent[:, 1].astype(int)), ent[:, 2])
    return mat


def _pyramid_values(path):
    with open(path, encoding="utf-8") as fh:
        return np.array([float(s) for s in fh.read().splitlines()
                         if s and not s.startswith("#")])


def _drift(h0, h1):
    e0 = np.linalg.eigvalsh(h0)
    e1 = np.linalg.eigvalsh(h1)
    return float(np.abs(e1 - e0).max()) / max(1.0, float(np.abs(e0).max()))


def _off_norm(h, generator, partition):
    if generator in ("diag", "wegner-diagonal"):
        return float(np.sqrt((h**2).sum() - (np.diag(h) ** 2).sum()))
    return float(np.sqrt(2.0) * np.linalg.norm(h[:partition, partition:]))


class CheckFailed(Exception):
    pass


def _require(ok, message):
    if not ok:
        raise CheckFailed(message)


def check(job, outcome, references):
    """Return a dict of reported numbers; raise CheckFailed on a bad output.

    outcome: what the worker kept from the job (return code for CLI jobs,
    values and matrices for library jobs).
    """
    spec = job["check"]
    kind = spec["type"]
    if job["op"] == "cli":
        _require(outcome["rc"] == 0, f"exit code {outcome['rc']}: {outcome['stderr']}")
    out = output_paths(job)[0] if job["op"] == "cli" else None
    if kind == "filters":
        h = np.array([float(r[1]) for r in _csv_rows(out)])
        k = spec["order"]
        _require(len(h) == 2 * k, f"{len(h)} taps for order {k}")
        _require(abs(h.sum() - math.sqrt(2.0)) < 1e-12, "taps do not sum to sqrt 2")
        _require(abs(h @ h - 1.0) < 1e-12, "taps not unit norm")
        return {}
    if kind == "table":
        with open(out, encoding="utf-8") as fh:
            head = fh.read().splitlines()[:3]
        want = "derivative-D" if spec["kind"] == "d" else "gamma-" + spec["kind"][-1]
        _require(head[1:3] == [f"kind {want}", f"order {spec['order']}"],
                 f"unexpected table header {head}")
        return {}
    if kind == "oracle":
        dev = float(_csv_rows(out)[0][4])
        key = (spec["kind"], spec["order"])
        if key in ORACLE_EXEMPT:
            _require(dev <= ORACLE_EXEMPT[key],
                     f"oracle deviation {dev:.3e} above even the "
                     f"quadrature-limited ceiling {ORACLE_EXEMPT[key]:.1e}")
            return {"oracle_deviation": dev, "quadrature_limited": True}
        _require(dev <= ORACLE_TOL[spec["kind"]],
                 f"oracle deviation {dev:.3e} > {ORACLE_TOL[spec['kind']]:.0e}")
        return {"oracle_deviation": dev}
    if kind == "readback":
        for name, res in outcome["residuals"].items():
            _require(res < RESIDUAL_TOL, f"{name} fixed-point residual {res:.2e}")
        sums = {}
        for (n2, _), v in outcome["gamma3"].items():
            sums[n2] = sums.get(n2, 0.0) + v
        rule = max(abs(s - (1.0 if n2 == 0 else 0.0)) for n2, s in sums.items())
        _require(rule < SUM_RULE_TOL, f"3-point sum rule {rule:.2e}")
        return {"residuals": outcome["residuals"], "sum_rule": rule}
    if kind == "spectrum":
        got = np.array([float(r[1]) for r in _csv_rows(out)])
        ref = np.array(references[spec["lattice"]][spec["point"]])
        _require(got.shape == ref.shape, f"{len(got)} eigenvalues, want {len(ref)}")
        dev = float((np.abs(got - ref) / np.maximum(1.0, np.abs(ref))).max())
        _require(dev <= SPECTRUM_RTOL,
                 f"eigenvalues off the reference by {dev:.2e} (> {SPECTRUM_RTOL:.0e})")
        return {"reference_deviation": dev}
    if kind == "srg":
        h0, h1 = outcome["initial"], outcome["final"]
        gen, part = job["generator"], outcome["partition"]
        drift = _drift(h0, h1)
        off0, off1 = _off_norm(h0, gen, part), _off_norm(h1, gen, part)
        _require(drift < DRIFT_TOL, f"eigenvalue drift {drift:.2e}")
        _require(off1 <= off0, f"off-generator norm grew {off0:.3e} -> {off1:.3e}")
        _require(outcome["monotonicity_breaks"] == 0, "off-generator norm grew mid-flow")
        return {"drift": drift, "off_initial": off0, "off_final": off1}
    if kind == "flow":
        h0, h1 = _read_coo(spec["input"]), _read_coo(spec["output"])
        drift = _drift(h0, h1)
        _require(drift < DRIFT_TOL, f"eigenvalue drift {drift:.2e}")
        off = np.array([float(r[1]) for r in _csv_rows(spec["log"])])
        slack = OFF_NORM_SLACK * max(1.0, float(np.linalg.norm(h0)))
        _require(bool(np.all(np.diff(off) <= slack)), "off-generator norm grew")
        final = _off_norm(h1, spec["generator"], spec["partition"])
        _require(abs(final - off[-1]) <= 1e-9 * max(1.0, off[0]),
                 "logged off-generator norm disagrees with the output matrix")
        return {"drift": drift, "off_initial": float(off[0]), "off_final": final}
    if kind == "diagnose":
        vals = np.array([float(r[1]) for r in _csv_rows(out)])
        _require(len(vals) > 0 and bool(np.all(np.isfinite(vals))), "no finite rows")
        if spec["probe"] == "partition":
            _require(float(vals.max()) < PARTITION_TOL,
                     f"partition of unity off by {vals.max():.2e}")
        return {"max": float(vals.max())}
    if kind in ("parseval", "roundtrip"):
        x = _read_values(spec["signal"])
        nx = float(np.linalg.norm(x))
        if kind == "parseval":
            c = _pyramid_values(out)
            _require(len(c) == len(x), "pyramid length differs from the signal")
            dev = abs(float(np.linalg.norm(c)) - nx)
        else:
            back = _read_values(out)
            _require(len(back) == len(x), "round trip changed the length")
            dev = float(np.linalg.norm(back - x))
        _require(dev <= TRANSFORM_TOL * nx, f"{kind} deviation {dev:.2e} > 1e-12 |x|")
        return {"deviation_over_norm": dev / nx}
    if kind == "mass":
        vals = np.array([float(r[1]) for r in _csv_rows(out)])
        mass = float(vals.sum()) / 2.0 ** spec["level"]
        _require(abs(mass - 1.0) < MASS_TOL, f"mass {mass!r}")
        return {"mass_deviation": abs(mass - 1.0)}
    return {}
