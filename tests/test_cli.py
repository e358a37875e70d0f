"""End-to-end checks of the command line driver.

Handlers run in-process through run(argv) so these stay fast; one
subprocess test confirms the installed entry point wiring, and others
run the entry point that pyproject.toml declares and
`python -m wavefield.cli` without an install.
"""

import importlib
import json
import hashlib
import os
import pathlib
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

import wavefield
from wavefield import cli, connection
from wavefield.cli import run


@pytest.fixture()
def cachedir(tmp_path, monkeypatch):
    d = tmp_path / "cache"
    monkeypatch.setenv("WAVEFIELD_CACHE", str(d))
    return d


def invoke(args, capsys):
    rc = run(args)
    out = capsys.readouterr()
    return rc, out.out, out.err


# ------------------------------------------------------------- filters

def test_filters_csv(capsys, cachedir):
    rc, out, _ = invoke(["filters", "--order", "2"], capsys)
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "tap,h,g"
    assert len(lines) == 5
    h = [float(ln.split(",")[1]) for ln in lines[1:]]
    s3 = np.sqrt(3.0)
    closed = np.array([1 + s3, 3 + s3, 3 - s3, 1 - s3]) / (4 * np.sqrt(2))
    assert np.abs(np.array(h) - closed).max() < 1e-14


def test_filters_json(capsys, cachedir):
    rc, out, _ = invoke(["filters", "--order", "2", "--format", "json"],
                        capsys)
    assert rc == 0
    doc = json.loads(out)
    assert doc["order"] == 2
    assert len(doc["h"]) == 4 and len(doc["g"]) == 4
    # quadrature mirror relation g_l = (-1)^l h_{2K-1-l}
    g = [(-1) ** l * doc["h"][3 - l] for l in range(4)]
    assert np.abs(np.array(g) - np.array(doc["g"])).max() == 0.0


def test_scalfun_rows(capsys, cachedir):
    rc, out, _ = invoke(["scalfun", "--order", "2", "--level", "3"], capsys)
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "x,value"
    xs = np.array([float(ln.split(",")[0]) for ln in lines[1:]])
    vals = np.array([float(ln.split(",")[1]) for ln in lines[1:]])
    assert len(vals) == 3 * 8 + 1
    assert xs[0] == 0.0 and xs[-1] == 3.0
    # Riemann sum of the scaling function is 1
    assert abs(vals[:-1].sum() / 8 - 1.0) < 1e-10


def test_scalfun_level_capped(capsys, cachedir):
    # refused before the cascade allocates; the level-16 cap is the oracle's
    rc, out, err = invoke(["scalfun", "--order", "3", "--level", "17"], capsys)
    assert rc == 1 and out == ""
    assert err.startswith("index: level must be at most 16")


# ------------------------------------------------------------- dwt

def test_dwt_haar_forward(tmp_path, capsys, cachedir):
    src = tmp_path / "v.csv"
    src.write_text("1\n1\n1\n1\n")
    rc, out, _ = invoke(
        ["dwt", "--order", "1", "--levels", "1", "--input", str(src),
         "--direction", "forward"], capsys)
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "# wavefield-pyramid 1"
    assert lines[1] == "# order 1 levels 1 length 4"
    vals = [float(ln) for ln in lines if not ln.startswith("#")]
    rt2 = np.sqrt(2.0)
    assert np.abs(np.array(vals) - [rt2, rt2, 0.0, 0.0]).max() < 1e-15


def test_dwt_round_trip_files(tmp_path, capsys, cachedir):
    rng = np.random.default_rng(5)
    vals = rng.normal(size=16)
    src = tmp_path / "v.csv"
    src.write_text("\n".join("%.17g" % v for v in vals))
    pyr = tmp_path / "p.txt"
    rc = run(["dwt", "--order", "2", "--levels", "2", "--input", str(src),
              "--direction", "forward", "--output", str(pyr)])
    assert rc == 0
    rec = tmp_path / "r.txt"
    rc = run(["dwt", "--order", "2", "--levels", "2", "--input", str(pyr),
              "--direction", "inverse", "--output", str(rec)])
    assert rc == 0
    back = np.array([float(x) for x in rec.read_text().split()])
    assert np.abs(back - vals).max() < 1e-12


def test_dwt_inverse_flag_mismatch(tmp_path, capsys, cachedir):
    src = tmp_path / "v.csv"
    src.write_text("1\n2\n3\n4\n5\n6\n7\n8\n")
    pyr = tmp_path / "p.txt"
    assert run(["dwt", "--order", "1", "--levels", "2", "--input", str(src),
                "--direction", "forward", "--output", str(pyr)]) == 0
    rc, _, err = invoke(
        ["dwt", "--order", "1", "--levels", "3", "--input", str(pyr),
         "--direction", "inverse"], capsys)
    assert rc == 1
    assert err.startswith("parse:")


def test_dwt_malformed_input(tmp_path, capsys, cachedir):
    bad = tmp_path / "bad.csv"
    bad.write_text("1.0\ntwo\n3.0\n")
    rc, _, err = invoke(
        ["dwt", "--order", "1", "--levels", "1", "--input", str(bad),
         "--direction", "forward"], capsys)
    assert rc == 1
    assert err.startswith("parse:")


PYRAMID_OK = ["# wavefield-pyramid 1", "# order 1 levels 1 length 4",
              "# coarse scale -1 length 2", "1", "1",
              "# detail 1 scale -1 length 2", "0", "0"]


@pytest.mark.parametrize("line,text,where", [
    (2, "# order x levels 1 length 4", "line=2"),
    (3, "# coarse length 2", "line=3"),
    (6, "# detail 2 scale -1 length 2", "line=6"),
    (6, "# detail 1 scale -1 length 3", "line=6 length=3 values=2"),
    (2, "# order 1 levels 1 length 8", "line=2 length=8 values=4"),
    (5, "inf", "line=5"),
    (7, "nan", "line=7"),
])
def test_dwt_inverse_malformed_pyramid(line, text, where, tmp_path, capsys,
                                       cachedir):
    lines = list(PYRAMID_OK)
    lines[line - 1] = text
    src = tmp_path / "p.txt"
    src.write_text("\n".join(lines) + "\n")
    rc, out, err = invoke(
        ["dwt", "--order", "1", "--levels", "1", "--input", str(src),
         "--direction", "inverse"], capsys)
    assert rc == 1 and out == ""
    assert err.startswith("parse:") and err.count("\n") == 1
    assert err.rstrip().endswith(where)


def test_dwt_inverse_short_block(tmp_path, capsys, cachedir):
    src = tmp_path / "p.txt"
    src.write_text("\n".join(PYRAMID_OK[:-1]) + "\n")
    rc, _, err = invoke(
        ["dwt", "--order", "1", "--levels", "1", "--input", str(src),
         "--direction", "inverse"], capsys)
    assert rc == 1
    assert err.startswith("parse: block length disagrees with its values")
    assert "line=6 length=2 values=1" in err


def test_dwt_forward_refuses_nonfinite(tmp_path, capsys, cachedir):
    src = tmp_path / "v.csv"
    src.write_text("1\n\nnan\n")
    rc, out, err = invoke(
        ["dwt", "--order", "1", "--levels", "1", "--input", str(src),
         "--direction", "forward"], capsys)
    assert rc == 1 and out == ""
    assert err.startswith("parse: non-finite value in input")
    assert err.rstrip().endswith("line=3")


# ------------------------------------------------------------- coeffs

def test_coeffs_table_and_cache_hit(capsys, cachedir):
    rc, first, _ = invoke(["coeffs", "--order", "3", "--kind", "d"], capsys)
    assert rc == 0
    assert first.splitlines()[0] == "wavefield-tensor 1"
    assert "kind derivative-D" in first
    # central value 295/56
    row0 = [ln for ln in first.splitlines() if ln.startswith("0 ")][0]
    assert abs(float(row0.split()[1]) - 295.0 / 56.0) < 1e-12
    assert (cachedir / "d-K3-s0-v1.tbl").exists()
    rc, second, _ = invoke(["coeffs", "--order", "3", "--kind", "d"], capsys)
    assert rc == 0 and second == first


def test_coeffs_corrupt_cache(capsys, cachedir):
    assert run(["coeffs", "--order", "3", "--kind", "d",
                "--output", "/dev/null"]) == 0
    path = cachedir / "d-K3-s0-v1.tbl"
    body = path.read_text()
    path.write_text(body.replace("5.2678571428571015", "5.3678571428571015"))
    rc, _, err = invoke(["coeffs", "--order", "3", "--kind", "d"], capsys)
    assert rc == 1
    assert err.startswith("corrupt-table:")


@pytest.mark.parametrize("scale", [0, 1])
def test_coeffs_symmetric_edit_caught(capsys, cachedir, scale):
    # the (0,0,0) entry is permutation invariant, so only the partition
    # rule against the cached gamma3 partner can flag this edit
    argv = ["coeffs", "--order", "3", "--kind", "gamma4", "--scale", str(scale)]
    assert run(argv + ["--output", "/dev/null"]) == 0
    path = cachedir / f"gamma4-K3-s{scale}-v1.tbl"
    assert (cachedir / "gamma3-K3-s0-v1.tbl").exists()
    lines = path.read_text().splitlines()
    k = next(i for i, ln in enumerate(lines) if ln.startswith("0 0 0 "))
    lines[k] = "0 0 0 9.9"
    path.write_text("\n".join(lines) + "\n")
    rc, _, err = invoke(argv, capsys)
    assert rc == 1
    assert err.startswith("corrupt-table:")


def test_cold_gamma4_validated_once(cachedir, monkeypatch):
    # a cold miss checks the table, partition rule included, only inside
    # save_tensor, and only at the requested scale
    seen = []
    real = connection.validate_tensor

    def counting(t, gamma3=None):
        seen.append((t.kind, t.scale, gamma3 is not None))
        return real(t, gamma3)

    monkeypatch.setattr(connection, "validate_tensor", counting)
    monkeypatch.setattr(cli, "validate_tensor", counting)
    for scale in (0, 1):
        seen.clear()
        assert run(["coeffs", "--order", "3", "--kind", "gamma4", "--scale",
                    str(scale), "--output", "/dev/null"]) == 0
        g4 = [call for call in seen if call[0] == "gamma-4"]
        assert g4 == [("gamma-4", scale, True)]


@pytest.mark.parametrize("scale", [0, 1])
def test_cold_gamma4_partition_rule_refuses(capsys, cachedir, monkeypatch, scale):
    # (0,0,0) keeps permutation symmetry, so only the partition rule sees it
    real = cli.gamma_tensor

    def tampered(order, m):
        t = real(order, m)
        if m == 4:
            t = connection.CoeffTensor(t.kind, t.order, t.scale,
                                       {**t.entries, (0, 0, 0): 9.9})
        return t

    monkeypatch.setattr(cli, "gamma_tensor", tampered)
    rc, _, err = invoke(["coeffs", "--order", "3", "--kind", "gamma4",
                         "--scale", str(scale)], capsys)
    assert rc == 1
    assert err.startswith("corrupt-table:")
    assert not list(cachedir.glob("gamma4-*.tbl"))


def test_coeffs_refused_table_never_cached(capsys, cachedir):
    # the K=10 D solve is even only to 1.0e-12, above the 1e-12 bound;
    # save_tensor refuses it, so every run fails the same way
    for _ in range(2):
        rc, _, err = invoke(["coeffs", "--order", "10", "--kind", "d"], capsys)
        assert rc == 1
        assert err.startswith("corrupt-table:")
    assert not list(cachedir.glob("d-K10-*.tbl"))


def test_coeffs_order_limit_caches_nothing(capsys, cachedir):
    # the order-8 gamma4 system would take 1.19 GB; it is refused before
    # anything is allocated, and before the gamma3 partner is fetched
    start = time.perf_counter()
    rc, out, err = invoke(["coeffs", "--order", "8", "--kind", "gamma4"], capsys)
    assert time.perf_counter() - start < 1.0
    assert rc == 1 and out == ""
    assert err.startswith("unsupported-order:")
    # the error's context reaches stderr on the same line
    assert err.count("\n") == 1
    assert "unknowns=12209 bytes=1192575120" in err
    assert not list(cachedir.glob("*.tbl"))


def test_coeffs_verify_oracle(capsys, cachedir):
    rc, out, _ = invoke(
        ["coeffs", "--order", "3", "--kind", "gamma3",
         "--verify-oracle", "8"], capsys)
    assert rc == 0
    head, row = out.splitlines()
    assert head == "kind,order,scale,level,max_oracle_deviation"
    dev = float(row.split(",")[-1])
    # level-8 quadrature of the K=3 triple product
    assert 0 < dev < 1e-5


def test_coeffs_rescaled_verify(capsys, cachedir):
    rc, out, _ = invoke(
        ["coeffs", "--order", "3", "--kind", "gamma4", "--scale", "1",
         "--verify-oracle", "8", "--format", "json"], capsys)
    assert rc == 0
    doc = json.loads(out)
    assert doc["scale"] == 1
    assert 0 < doc["max_oracle_deviation"] < 1e-3


# ------------------------------------------------------------- hamiltonian

def test_hamiltonian_output(tmp_path, capsys, cachedir):
    dump = tmp_path / "h.coo"
    rc, out, _ = invoke(
        ["hamiltonian", "--order", "3", "--modes", "2", "--nmax", "6",
         "--mass2", "1.0", "--lambda", "0.0", "--eigs", "4",
         "--dump-matrix", str(dump)], capsys)
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "index,eigenvalue,residual"
    assert len(lines) == 5
    res = [float(ln.split(",")[2]) for ln in lines[1:]]
    assert max(res) < 1e-8
    dim, nnz = map(int, dump.read_text().splitlines()[0].split())
    assert dim == 49
    mat = np.zeros((dim, dim))
    for ln in dump.read_text().splitlines()[1:]:
        r, c, v = ln.split()
        mat[int(r), int(c)] = float(v)
    assert np.count_nonzero(mat) == nnz
    assert np.abs(mat - mat.T).max() < 1e-12
    # normal ordering puts an exact zero in the vacuum corner
    assert mat[0, 0] == 0.0


def test_hamiltonian_rejects_low_order(capsys, cachedir):
    rc, _, err = invoke(
        ["hamiltonian", "--order", "2", "--modes", "2", "--nmax", "4",
         "--mass2", "1.0", "--lambda", "0.1", "--eigs", "2"], capsys)
    assert rc == 1
    assert err.startswith("non-differentiable-order:")


def test_hamiltonian_convergence_failure_reports_context(capsys, cachedir,
                                                         monkeypatch):
    import scipy.sparse.linalg as spla

    def stalled(*args, **kwargs):
        raise spla.ArpackNoConvergence("stalled", np.array([0.5]), None)

    monkeypatch.setattr(spla, "eigsh", stalled)
    rc, out, err = invoke(
        ["hamiltonian", "--order", "3", "--modes", "4", "--nmax", "3",
         "--mass2", "1.0", "--lambda", "0.1", "--eigs", "2"], capsys)
    assert rc == 1 and out == ""  # dim 256: the iterative path
    assert err.count("\n") == 1
    assert err.startswith("convergence-failure:")
    assert " eigenvalues=[0.5]" in err and " count=2" in err


def test_hamiltonian_deterministic(tmp_path, cachedir):
    cold, warm = cold_and_warm_bytes(
        ["hamiltonian", "--order", "3", "--modes", "2", "--nmax", "8",
         "--mass2", "1.0", "--lambda", "0.25", "--eigs", "3"], tmp_path)
    assert cold == warm


# ------------------------------------------------------------- flow

def _write_coo(path, mat):
    nz = [(r, c, mat[r, c]) for r in range(mat.shape[0])
          for c in range(mat.shape[1]) if mat[r, c] != 0.0]
    path.write_text(
        "%d %d\n" % (mat.shape[0], len(nz))
        + "\n".join("%d %d %.17g" % t for t in nz))


def test_flow_diagonalizes(tmp_path, capsys, cachedir):
    rng = np.random.default_rng(11)
    a = rng.normal(size=(6, 6))
    h = (a + a.T) / 2
    src = tmp_path / "h.coo"
    _write_coo(src, h)
    log = tmp_path / "traj.csv"
    rc, out, _ = invoke(
        ["flow", "--input", str(src), "--generator", "diag",
         "--lambda-end", "2.0", "--log", str(log)], capsys)
    assert rc == 0
    lines = out.splitlines()
    dim, nnz = map(int, lines[0].split())
    assert dim == 6
    mat = np.zeros((6, 6))
    for ln in lines[1:]:
        r, c, v = ln.split()
        mat[int(r), int(c)] = float(v)
    off0 = np.linalg.norm(h - np.diag(np.diag(h)))
    off1 = np.linalg.norm(mat - np.diag(np.diag(mat)))
    assert off1 < 0.5 * off0
    drift = np.abs(np.sort(np.linalg.eigvalsh(mat))
                   - np.sort(np.linalg.eigvalsh(h))).max()
    assert drift < 1e-8
    rows = log.read_text().splitlines()
    assert rows[0] == "lambda,offdiag_frobenius,max_eigen_drift"
    last = rows[-1].split(",")
    assert float(last[0]) == 2.0
    assert float(last[2]) < 1e-8


def test_flow_block_requires_partition(tmp_path, capsys, cachedir):
    src = tmp_path / "h.coo"
    _write_coo(src, np.eye(4))
    rc, _, err = invoke(
        ["flow", "--input", str(src), "--generator", "block",
         "--lambda-end", "0.5"], capsys)
    assert rc == 1
    assert err.startswith("shape:")


def test_flow_rejects_asymmetric(tmp_path, capsys, cachedir):
    src = tmp_path / "h.coo"
    src.write_text("2 1\n0 1 0.5")
    rc, _, err = invoke(
        ["flow", "--input", str(src), "--generator", "diag",
         "--lambda-end", "0.5"], capsys)
    assert rc == 1
    assert err.startswith("shape:")


def test_flow_bad_header(tmp_path, capsys, cachedir):
    src = tmp_path / "h.coo"
    src.write_text("2 5\n0 0 1.0")
    rc, _, err = invoke(
        ["flow", "--input", str(src), "--generator", "diag",
         "--lambda-end", "0.5"], capsys)
    assert rc == 1
    assert err.startswith("parse:")


@pytest.mark.parametrize("text,prefix", [
    ("2 1\n0 0 nan\n", "parse: non-finite value in input"),
    ("2 2\n0 0 1\n\n1 1 -inf\n", "parse: non-finite value in input"),
    ("-2 0\n", "parse: matrix header counts must be nonnegative"),
    ("2 x\n", "parse: matrix header must be 'dim nnz'"),
    ("2 1\n0 1\n", "parse: matrix entries are 'row col value'"),
    ("0 0\n", "shape: flow matrix is empty"),
    # two finite entries whose sum overflows
    ("1 2\n0 0 1e308\n0 0 1e308\n", "shape: flow matrix must be finite"),
])
def test_flow_malformed_matrix(text, prefix, tmp_path, capsys, cachedir):
    src = tmp_path / "h.coo"
    src.write_text(text)
    rc, out, err = invoke(
        ["flow", "--input", str(src), "--generator", "diag",
         "--lambda-end", "0.5"], capsys)
    assert rc == 1 and out == ""
    assert err.startswith(prefix) and err.count("\n") == 1
    if prefix.startswith("parse"):
        assert "line=" in err


def test_flow_cap_checked_before_allocation(tmp_path, capsys, cachedir):
    # a dense 10^8 x 10^8 matrix cannot be allocated; the header is refused
    # before anything is
    src = tmp_path / "h.coo"
    src.write_text("100000000 0\n")
    rc, _, err = invoke(
        ["flow", "--input", str(src), "--generator", "diag",
         "--lambda-end", "0.5"], capsys)
    assert rc == 1
    assert err.startswith("shape: flow matrices are capped at 512 dim=100000000")


# ------------------------------------------------------------- diagnose

def test_diagnose_partition(capsys, cachedir):
    rc, out, _ = invoke(
        ["diagnose", "--order", "3", "--scale", "2",
         "--probe", "partition"], capsys)
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "k,value"
    assert [ln.split(",")[0] for ln in lines[1:]] == ["0", "1", "2"]
    assert max(float(ln.split(",")[1]) for ln in lines[1:]) < 1e-10


def test_diagnose_projection_skips_windowed_scales(capsys, cachedir):
    # the default gaussian probe leaks into the seam buffer below k=2
    # at order 3, so those rows are absent rather than wrong
    rc, out, _ = invoke(
        ["diagnose", "--order", "3", "--scale", "3",
         "--probe", "projection"], capsys)
    assert rc == 0
    ks = [int(ln.split(",")[0]) for ln in out.splitlines()[1:]]
    assert ks == [2, 3]
    vals = [float(ln.split(",")[1]) for ln in out.splitlines()[1:]]
    assert vals[1] < vals[0]


def test_diagnose_all_scales_windowed(capsys, cachedir):
    rc, _, err = invoke(
        ["diagnose", "--order", "3", "--scale", "1",
         "--probe", "projection", "--function", "gauss:2,1"], capsys)
    assert rc == 1
    assert err.startswith("windowing:")


@pytest.mark.parametrize("scale,message", [
    ("-1", "scale must be nonnegative"),
    # needs a level-17 grid
    ("13", "grid level must be at most 16"),
])
def test_diagnose_refused_scale(capsys, cachedir, scale, message):
    # the requested scale's probe is built before the sweep, so the run
    # fails with KernelProbe's own error before any row is computed
    rc, out, err = invoke(["diagnose", "--order", "3", "--scale", scale,
                          "--probe", "partition"], capsys)
    assert rc == 1 and out == ""
    assert err.startswith("index: " + message)


def test_diagnose_poly_commutator(capsys, cachedir):
    rc, out, _ = invoke(
        ["diagnose", "--order", "3", "--scale", "1", "--probe", "commutator",
         "--function", "poly:2"], capsys)
    assert rc == 0
    vals = [float(ln.split(",")[1]) for ln in out.splitlines()[1:]]
    assert len(vals) == 2
    assert max(vals) < 1e-8


def test_diagnose_bad_function_usage_error(capsys, cachedir):
    rc, _, err = invoke(
        ["diagnose", "--order", "3", "--scale", "1", "--probe", "projection",
         "--function", "spline:3"], capsys)
    assert rc == 2


# ------------------------------------------------------------- csv vs json

def csv_numbers(text):
    return [[float(v) for v in ln.split(",")] for ln in text.splitlines()[1:]]


def test_json_numbers_equal_csv(capsys, cachedir):
    # both formats print the same float64 values, exactly
    def both(argv):
        docs = []
        for fmt in ("csv", "json"):
            rc, out, _ = invoke(argv + ["--format", fmt], capsys)
            assert rc == 0
            docs.append(out)
        return csv_numbers(docs[0]), json.loads(docs[1])

    for extra in ([], ["--derivative"]):
        rows, doc = both(["scalfun", "--order", "3", "--level", "4"] + extra)
        assert doc["derivative"] == bool(extra)
        assert rows == doc["rows"]

    rows, doc = both(["hamiltonian", "--order", "3", "--modes", "2",
                      "--nmax", "4", "--mass2", "1.0", "--lambda", "0.3",
                      "--eigs", "3"])
    assert doc["dimension"] == 25
    assert [r[0] for r in rows] == [0, 1, 2]
    assert [r[1] for r in rows] == doc["eigenvalues"]
    assert [r[2] for r in rows] == doc["residuals"]

    for probe in ("partition", "projection", "commutator"):
        rows, doc = both(["diagnose", "--order", "3", "--scale", "3",
                          "--probe", probe])
        assert doc["probe"] == probe and doc["function"] == "gauss:12.0,1.0"
        assert rows and rows == doc["rows"]


# ------------------------------------------------------------- plumbing

def test_usage_errors_exit_two(capsys, cachedir):
    assert invoke(["filters"], capsys)[0] == 2
    assert invoke(["bogus"], capsys)[0] == 2
    assert invoke([], capsys)[0] == 2


def test_computation_error_names_stderr(capsys, cachedir):
    rc, _, err = invoke(["filters", "--order", "40"], capsys)
    assert rc == 1
    assert err.startswith("unsupported-order:")


def test_missing_input_file(capsys, cachedir, tmp_path):
    rc, _, err = invoke(
        ["dwt", "--order", "1", "--levels", "1",
         "--input", str(tmp_path / "nope.csv"), "--direction", "forward"],
        capsys)
    assert rc == 1
    assert err.startswith("parse:")


def test_manifest_records(tmp_path, capsys, cachedir):
    mani = tmp_path / "runs.jsonl"
    out1 = tmp_path / "f2.csv"
    out2 = tmp_path / "f3.csv"
    assert run(["filters", "--order", "2", "--output", str(out1),
                "--manifest", str(mani)]) == 0
    assert run(["filters", "--order", "3", "--output", str(out2),
                "--manifest", str(mani)]) == 0
    recs = [json.loads(ln) for ln in mani.read_text().splitlines()]
    assert len(recs) == 2
    assert sorted(recs[0]) == ["inputs", "outputs", "parameters",
                               "subcommand", "version", "wall_time_s"]
    assert recs[0]["subcommand"] == "filters"
    assert recs[0]["parameters"]["order"] == 2
    digest = hashlib.sha256(out1.read_bytes()).hexdigest()
    assert recs[0]["outputs"][str(out1)] == digest
    assert recs[1]["parameters"]["order"] == 3


def test_manifest_tracks_inputs(tmp_path, capsys, cachedir):
    src = tmp_path / "v.csv"
    src.write_text("1\n1\n1\n1\n")
    mani = tmp_path / "runs.jsonl"
    rc, out, _ = invoke(
        ["dwt", "--order", "1", "--levels", "1", "--input", str(src),
         "--direction", "forward", "--manifest", str(mani)], capsys)
    assert rc == 0
    rec = json.loads(mani.read_text())
    digest = hashlib.sha256(src.read_bytes()).hexdigest()
    assert rec["inputs"][str(src)] == digest
    assert rec["outputs"]["stdout"] == hashlib.sha256(
        out.encode()).hexdigest()


def test_cache_flag_overrides_env(tmp_path, capsys, cachedir):
    other = tmp_path / "other-cache"
    rc = run(["coeffs", "--order", "3", "--kind", "d",
              "--cache", str(other), "--output", "/dev/null"])
    assert rc == 0
    assert (other / "d-K3-s0-v1.tbl").exists()
    assert not (cachedir / "d-K3-s0-v1.tbl").exists()


# ------------------------------------------------------------- determinism

def cold_and_warm_bytes(argv, tmp_path):
    """Primary output of argv run against an empty table cache, then again
    against the cache the first run filled."""
    cache = tmp_path / "pin-cache"
    outs = []
    for run_name in ("cold", "warm"):
        dst = tmp_path / f"pin-{run_name}.out"
        assert run(argv + ["--cache", str(cache), "--output", str(dst)]) == 0
        outs.append(dst.read_bytes())
    return outs


PINNED = {
    "filters": ["filters", "--order", "3"],
    "scalfun": ["scalfun", "--order", "3", "--level", "5"],
    "scalfun-json": ["scalfun", "--order", "3", "--level", "5",
                     "--derivative", "--format", "json"],
    "dwt": ["dwt", "--order", "2", "--levels", "2", "--input", "{vector}",
            "--direction", "forward"],
    "coeffs-table": ["coeffs", "--order", "3", "--kind", "gamma4"],
    # the partition and sum rules hold at every scale (sqrt 2 at odd
    # scales for gamma3)
    "coeffs-gamma4-scale1": ["coeffs", "--order", "3", "--kind", "gamma4",
                             "--scale", "1"],
    "coeffs-gamma3-scale1": ["coeffs", "--order", "3", "--kind", "gamma3",
                             "--scale", "1"],
    # the rescaled table's evenness bound scales with it (4^k for D)
    "coeffs-d-scale2": ["coeffs", "--order", "4", "--kind", "d",
                        "--scale", "2"],
    "coeffs-oracle-csv": ["coeffs", "--order", "3", "--kind", "d",
                          "--verify-oracle", "10"],
    "coeffs-oracle-json": ["coeffs", "--order", "3", "--kind", "d",
                           "--verify-oracle", "10", "--format", "json"],
    "flow": ["flow", "--input", "{matrix}", "--generator", "diag",
             "--lambda-end", "0.5"],
    "diagnose": ["diagnose", "--order", "3", "--scale", "2",
                 "--probe", "partition"],
    "diagnose-json": ["diagnose", "--order", "3", "--scale", "3",
                      "--probe", "projection", "--format", "json"],
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_subcommand_deterministic(name, tmp_path, cachedir):
    # every subcommand but hamiltonian (pinned above) gives the same bytes
    # whether or not its tables come from the cache
    rng = np.random.default_rng(3)
    vector = tmp_path / "v.csv"
    vector.write_text("\n".join("%.17g" % v for v in rng.normal(size=16)))
    a = rng.normal(size=(6, 6))
    matrix = tmp_path / "h.coo"
    _write_coo(matrix, (a + a.T) / 2)
    argv = [arg.format(vector=vector, matrix=matrix) for arg in PINNED[name]]
    cold, warm = cold_and_warm_bytes(argv, tmp_path)
    assert cold and cold == warm


@pytest.mark.skipif(shutil.which("wavefield") is None,
                    reason="wavefield console script not on PATH "
                           "(needs pip install -e .)")
def test_entry_point_version():
    proc = subprocess.run(["wavefield", "--version"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "0.1.0"


def src_env():
    src_dir = pathlib.Path(wavefield.__file__).resolve().parents[1]
    return dict(os.environ, PYTHONPATH=str(src_dir))


def test_module_runs_as_script(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "wavefield.cli", "filters", "--order", "2"],
        capture_output=True, text=True, cwd=tmp_path, env=src_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == "tap,h,g"


def test_cli_import_leaves_scipy_integrate_out():
    # importing scipy.integrate costs about 0.2 s and 18 MiB; the flow
    # carries its Runge-Kutta tableau as literals so that no CLI start
    # pays for it
    code = ("import sys, wavefield.cli; "
            "sys.exit('scipy.integrate' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, env=src_env())
    assert proc.returncode == 0, proc.stderr or "scipy.integrate was imported"


def test_declared_entry_point_version():
    tomllib = pytest.importorskip("tomllib")
    pyproject = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["wavefield"]
    module, func = target.split(":")
    assert callable(getattr(importlib.import_module(module), func))
    code = ("import importlib, sys; sys.argv = ['wavefield', '--version']; "
            f"sys.exit(importlib.import_module({module!r}).{func}())")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True,
                          env=src_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0.1.0"
