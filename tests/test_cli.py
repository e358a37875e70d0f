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
import threading
import time

import numpy as np
import pytest

import wavefield
from wavefield import cli, connection
from wavefield.cli import run
from wavefield.connection import derivative_overlaps, gamma_tensor
from wavefield.fock import (
    FockBasis,
    ModelParams,
    build_phi4_hamiltonian,
    lanczos_lowest,
)


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


def test_dwt_forward_reads_crlf_blank_lines_and_padding(tmp_path, capsys,
                                                        cachedir):
    plain, messy = tmp_path / "plain.csv", tmp_path / "messy.csv"
    plain.write_text("1\n2\n3\n4\n")
    messy.write_bytes(b"\r\n 1\r\n\r\n2\t\r\n  \r\n3\r\n4\r\n\r\n")
    outs = []
    for src in (plain, messy):
        rc, out, _ = invoke(
            ["dwt", "--order", "1", "--levels", "1", "--input", str(src),
             "--direction", "forward"], capsys)
        assert rc == 0
        outs.append(out)
    assert outs[0] == outs[1]


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
    (8, "nan", "line=8"),
    # two values on one line are one non-numeric line
    (4, "1 1", "line=4"),
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


@pytest.mark.parametrize("text,message,line", [
    # two values on one line are one non-numeric line, not two values
    ("1\n2 3\n4\n", "non-numeric value in input", 2),
    ("1\r\n\r\n  2\t\r\n3\r\n4 5\r\n", "non-numeric value in input", 5),
    ("1\n2\n3\n-inf", "non-finite value in input", 4),
])
def test_dwt_forward_names_bad_line(text, message, line, tmp_path, capsys,
                                    cachedir):
    src = tmp_path / "v.csv"
    src.write_bytes(text.encode())
    rc, out, err = invoke(
        ["dwt", "--order", "1", "--levels", "1", "--input", str(src),
         "--direction", "forward"], capsys)
    assert rc == 1 and out == ""
    assert err.startswith(f"parse: {message}")
    assert err.rstrip().endswith(f"line={line}")


# a byte that is no UTF-8 is refused as a parse error naming its line,
# whether it sits in the first piece a reader reads or far past it
@pytest.mark.parametrize("before", [2, 40000])
def test_dwt_forward_refuses_non_utf8(before, tmp_path, capsys, cachedir):
    src = tmp_path / "v.csv"
    src.write_bytes(b"1\r\n" * before + b"2\xff\n" + b"3\n" * 5)
    rc, out, err = invoke(
        ["dwt", "--order", "1", "--levels", "1", "--input", str(src),
         "--direction", "forward"], capsys)
    assert rc == 1 and out == ""
    assert err == (f"parse: input is not UTF-8 text path={src} "
                   f"line={before + 1}\n")


def test_dwt_inverse_refuses_non_utf8(tmp_path, capsys, cachedir):
    lines = [s.encode() for s in PYRAMID_OK]
    lines[6] = b"0\xff"
    src = tmp_path / "p.txt"
    src.write_bytes(b"\n".join(lines) + b"\n")
    rc, out, err = invoke(
        ["dwt", "--order", "1", "--levels", "1", "--input", str(src),
         "--direction", "inverse"], capsys)
    assert rc == 1 and out == ""
    assert err == f"parse: input is not UTF-8 text path={src} line=7\n"


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


@pytest.mark.parametrize("name", sorted(os.listdir(connection._TABLE_DIR)))
def test_cold_coeffs_prints_the_shipped_file(capsys, cachedir, name):
    # a cold scale-0 table is the shipped file, byte for byte
    kind, order = name.removesuffix(".tbl").split("-K")
    kind = {"derivative-D": "d", "gamma-3": "gamma3", "gamma-4": "gamma4"}[kind]
    rc, out, _ = invoke(["coeffs", "--order", order, "--kind", kind], capsys)
    assert rc == 0
    assert out == (pathlib.Path(connection._TABLE_DIR) / name).read_text()


def assert_refused_uncached(kind, K, capsys, cachedir):
    """Every run of a cold coeffs at an order with no shipped table fails
    the same way, fast and in one line, and caches nothing."""
    for _ in range(2):
        start = time.perf_counter()
        rc, out, err = invoke(["coeffs", "--order", str(K), "--kind", kind],
                              capsys)
        assert time.perf_counter() - start < 1.0
        assert rc == 1 and out == ""
        assert err.startswith("unsupported-order:")
        # the error's context reaches stderr on the same line
        assert err.count("\n") == 1
        assert f"order={K}" in err
    assert not list(cachedir.glob("*.tbl"))


def test_coeffs_refused_table_never_cached(capsys, cachedir):
    # the dense solve of D at orders 10 and 12 is even only to 1.0e-12
    # and 5.7e-12, above the 1e-12 bound, so neither table is shipped
    for K in (10, 12):
        assert_refused_uncached("d", K, capsys, cachedir)


def test_coeffs_order_limit_caches_nothing(capsys, cachedir):
    # the dense gamma4 system takes 1.19 GB from order 8, so no table is
    # shipped there; the refusal comes before the gamma3 partner is fetched
    for K in (8, 12):
        assert_refused_uncached("gamma4", K, capsys, cachedir)


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


@pytest.mark.parametrize("flag,value,field", [
    ("--mass2", "nan", "mass_squared"),
    ("--mass2", "inf", "mass_squared"),
    ("--lambda", "nan", "coupling"),
    ("--lambda", "-inf", "coupling"),
    ("--gamma", "nan", "gamma"),
    ("--gamma", "inf", "gamma"),
])
def test_hamiltonian_refuses_nonfinite(flag, value, field, tmp_path, capsys,
                                       cachedir):
    # refused before any table is built or cached
    flags = {"--mass2": "1.0", "--lambda": "0.1", flag: value}
    dst, dump = tmp_path / "h.csv", tmp_path / "h.coo"
    rc, out, err = invoke(
        ["hamiltonian", "--order", "3", "--modes", "2", "--nmax", "4",
         "--eigs", "2", "--output", str(dst), "--dump-matrix", str(dump),
         *(f"{k}={v}" for k, v in flags.items())], capsys)
    assert rc == 1 and out == ""
    assert err.startswith(f"shape: {field} must be finite {field}={value}")
    assert err.count("\n") == 1
    assert not dst.exists() and not dump.exists() and not cachedir.exists()


@pytest.mark.parametrize("coupling", ["0", "-0.0"])
def test_zero_coupling_hamiltonian_fetches_only_d(coupling, capsys, cachedir):
    # the order-8 gamma-4 system is refused, but a free run never reads it
    rc, out, err = invoke(
        ["hamiltonian", "--order", "8", "--modes", "2", "--nmax", "3",
         "--mass2", "1.0", "--lambda", coupling, "--eigs", "2"], capsys)
    assert rc == 0 and err == ""
    assert out.startswith("index,eigenvalue,residual\n")
    assert sorted(p.name for p in cachedir.iterdir()) == ["d-K8-s0-v1.tbl"]


@pytest.mark.parametrize("modes,nmax", [(2, 6), (4, 3)])
def test_zero_coupling_hamiltonian_matches_four_point_path(modes, nmax, tmp_path,
                                                           capsys, cachedir):
    # the bytes equal those of the same Hamiltonian assembled with the
    # four-point table at hand, which zero coupling never reads
    dump = tmp_path / "h.coo"
    rc, out, _ = invoke(
        ["hamiltonian", "--order", "3", "--modes", str(modes), "--nmax",
         str(nmax), "--mass2", "1.0", "--lambda", "0", "--eigs", "3",
         "--dump-matrix", str(dump)], capsys)
    assert rc == 0
    basis = FockBasis(modes, nmax)
    op = build_phi4_hamiltonian(ModelParams(1.0, 0.0), derivative_overlaps(3),
                                gamma_tensor(3, 4), basis)
    pairs = lanczos_lowest(op, 3)
    assert out == "".join(cli._csv("index,eigenvalue,residual",
                                   range(len(pairs)), *zip(*pairs)))
    assert dump.read_text() == "".join(cli._coo_text(basis.dimension,
                                                     *op.entries()))


def test_hamiltonian_oversized_basis_named(capsys, cachedir):
    # 4^40 states: refused by the basis before its state grid exists, and
    # before any table is built or cached
    rc, out, err = invoke(
        ["hamiltonian", "--order", "3", "--modes", "40", "--nmax", "3",
         "--mass2", "1.0", "--lambda", "0.1", "--eigs", "2"], capsys)
    assert rc == 1 and out == ""
    assert err.count("\n") == 1
    assert err.startswith("shape: Fock state grid exceeds the memory limit "
                          f"modes=40 cutoff=3 dimension={4**40} "
                          f"bytes={8 * 4**40}")
    assert not cachedir.exists()


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


@pytest.mark.parametrize("end", ["nan", "inf"])
def test_flow_refuses_nonfinite_end(end, tmp_path, capsys, cachedir):
    src, dst, log = (tmp_path / name for name in ("h.coo", "f.coo", "t.csv"))
    _write_coo(src, np.array([[1.0, 0.5], [0.5, 2.0]]))
    rc, out, err = invoke(
        ["flow", "--input", str(src), "--generator", "diag",
         "--lambda-end", end, "--output", str(dst), "--log", str(log)], capsys)
    assert rc == 1 and out == ""
    assert err == f"shape: flow end point must be finite end={end}\n"
    assert not dst.exists() and not log.exists()


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


@pytest.mark.parametrize("text,message,line", [
    ("2 2\n0 0 1\n1 1 nan", "non-finite value in input", 3),
    ("\n2 x\n", "matrix header must be 'dim nnz'", 2),
    ("2 2\n0 0 1\n1 1 2 3\n", "matrix entries are 'row col value'", 3),
    # a line of two fields and one of four still hold six between them
    ("2 2\n0 0\n1 1 1 1\n", "matrix entries are 'row col value'", 2),
    ("2 2\n0 0 1\n0 2 1\n", "matrix index out of range", 3),
    ("2 2\n-1 0 1\n0 0 1\n", "matrix index out of range", 2),
    # the first bad line is named, whichever way it is bad
    ("2 3\n0 5 1\n1 x 1\n0 0 1\n", "matrix index out of range", 2),
    ("2 3\n0 0 1\n1 x 1\n0 5 1\n", "matrix entries are 'row col value'", 3),
])
def test_flow_names_bad_line(text, message, line, tmp_path, capsys, cachedir):
    src = tmp_path / "h.coo"
    src.write_text(text)
    rc, out, err = invoke(
        ["flow", "--input", str(src), "--generator", "diag",
         "--lambda-end", "0.5"], capsys)
    assert rc == 1 and out == ""
    assert err.startswith(f"parse: {message}") and err.count("\n") == 1
    assert err.rstrip().endswith(f"line={line}")


def test_flow_refuses_non_utf8(tmp_path, capsys, cachedir):
    src = tmp_path / "h.coo"
    src.write_bytes(b"2 2\n0 0 1\n1 1 \xff\n")
    rc, out, err = invoke(
        ["flow", "--input", str(src), "--generator", "diag",
         "--lambda-end", "0.5"], capsys)
    assert rc == 1 and out == ""
    assert err == f"parse: input is not UTF-8 text path={src} line=3\n"


# the flow reader streams its file; each error keeps its message and line
# when the bad line sits far past the first 2^16-character read.  FAR
# entry lines "0 0 1" come to 120000 characters.
FAR = 20000


@pytest.mark.parametrize("text,message,line", [
    ("\n" * 70000 + "2 x\n0 0 1\n", "matrix header must be 'dim nnz'", 70001),
    ("\r\n" * 70000 + "-2 0\n", "matrix header counts must be nonnegative",
     70001),
    (f"2 {FAR + 2}\n" + "0 0 1\n" * FAR + "1 1 1\n",
     f"expected {FAR + 2} entries, found {FAR + 1}", None),
    # the count is named before a bad entry line, wherever that sits
    (f"2 {FAR}\n0 0\n" + "0 0 1\n" * FAR,
     f"expected {FAR} entries, found {FAR + 1}", None),
    (f"2 {FAR + 1}\n" + "0 0 1\n" * FAR + "1 1\n",
     "matrix entries are 'row col value'", FAR + 2),
    (f"2 {FAR + 2}\n" + "0 0 1\n" * FAR + "1 2 1\n1 x 1\n",
     "matrix index out of range", FAR + 2),
    # the first bad entry line is named before a nan further up
    (f"2 {FAR + 2}\n0 0 nan\n" + "0 0 1\n" * FAR + "1 x 1\n",
     "matrix entries are 'row col value'", FAR + 3),
    (f"2 {FAR + 1}\n" + "0 0 1\n" * FAR + "1 1 -inf\n",
     "non-finite value in input", FAR + 2),
])
def test_flow_names_bad_line_far_in(text, message, line, tmp_path, capsys,
                                    cachedir):
    src = tmp_path / "h.coo"
    src.write_bytes(text.encode())
    rc, out, err = invoke(
        ["flow", "--input", str(src), "--generator", "diag",
         "--lambda-end", "0.5"], capsys)
    assert rc == 1 and out == ""
    assert err == (f"parse: {message} path={src}"
                   + (f" line={line}" if line else "") + "\n")


def test_flow_refuses_non_utf8_far_in(tmp_path, capsys, cachedir):
    src = tmp_path / "h.coo"
    src.write_bytes(f"2 {FAR + 1}\n".encode() + b"0 0 1\n" * FAR + b"1 1 \xff\n")
    rc, out, err = invoke(
        ["flow", "--input", str(src), "--generator", "diag",
         "--lambda-end", "0.5"], capsys)
    assert rc == 1 and out == ""
    assert err == f"parse: input is not UTF-8 text path={src} line={FAR + 2}\n"


def test_flow_count_beyond_the_file_allocates_nothing(tmp_path, capsys,
                                                     cachedir):
    # the entry arrays grow only as entry lines are read, so a header's
    # count alone allocates nothing
    src = tmp_path / "h.coo"
    src.write_text("2 100000000000000\n0 0 1\n")
    rc, out, err = invoke(
        ["flow", "--input", str(src), "--generator", "diag",
         "--lambda-end", "0.5"], capsys)
    assert rc == 1 and out == ""
    assert err == (f"parse: expected 100000000000000 entries, found 1 "
                   f"path={src}\n")


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


@pytest.mark.parametrize("function", ["gauss:nan,1", "gauss:12,nan",
                                      "gauss:inf,1", "gauss:12,-inf"])
def test_diagnose_refuses_nonfinite_gaussian(function, tmp_path, capsys,
                                             cachedir):
    dst = tmp_path / "d.csv"
    rc, out, err = invoke(
        ["diagnose", "--order", "3", "--scale", "1", "--probe", "projection",
         "--function", function, "--output", str(dst)], capsys)
    assert rc == 2 and out == ""
    assert (f"argument --function: bad probe function '{function}': "
            "gaussian center and width must be finite") in err
    assert not dst.exists()


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


def test_manifest_hashes_input_bytes(tmp_path, capsys, cachedir):
    # the digest is of the file as stored, not of the text read from it in
    # universal newline mode, which reads '1\r\n' as '1\n'
    src = tmp_path / "v.csv"
    src.write_bytes(b"1\r\n" * 4)
    mani = tmp_path / "runs.jsonl"
    rc, _, _ = invoke(
        ["dwt", "--order", "1", "--levels", "1", "--input", str(src),
         "--direction", "forward", "--manifest", str(mani)], capsys)
    assert rc == 0
    digest = json.loads(mani.read_text())["inputs"][str(src)]
    assert digest == hashlib.sha256(b"1\r\n" * 4).hexdigest()
    assert digest != hashlib.sha256(b"1\n" * 4).hexdigest()


# ------------------------------------------------------------- inputs read once

# an input is opened once and read through once, so a named pipe or a
# pipe on stdin is read as a file is: its bad line named, its bytes
# digested.  These runs go through a subprocess with a timeout, so a
# reader that blocks fails its test instead of hanging it.

FLOW = ["flow", "--generator", "diag", "--lambda-end", "0.5"]
FORWARD = ["dwt", "--order", "1", "--levels", "1", "--direction", "forward"]
INVERSE = ["dwt", "--order", "1", "--levels", "1", "--direction", "inverse"]
PIPED = [
    (FLOW, b"2 1\n0 0 nan\n", "non-finite value in input", 2),
    (FORWARD, b"1\n\n2\n-inf\n", "non-finite value in input", 4),
    (FORWARD, b"1\r\n2\xff\n", "input is not UTF-8 text", 2),
    (INVERSE, "\n".join(PYRAMID_OK[:6] + ["nan", "0"]).encode(),
     "non-finite value in input", 7),
]


def run_module(argv, tmp_path, **kw):
    env = dict(src_env(), WAVEFIELD_CACHE=str(tmp_path / "cache"))
    return subprocess.run([sys.executable, "-m", "wavefield.cli", *argv],
                          cwd=tmp_path, env=env, capture_output=True,
                          timeout=30, **kw)


@pytest.mark.parametrize("argv,data,message,line", PIPED)
def test_reader_names_bad_line_of_a_fifo(argv, data, message, line, tmp_path):
    fifo = tmp_path / "in.fifo"
    os.mkfifo(fifo)
    # the writer's open waits for the reader's; a daemon thread, so a
    # reader that never opens the pipe leaves nothing behind that waits
    writer = threading.Thread(target=fifo.write_bytes, args=(data,),
                              daemon=True)
    writer.start()
    proc = run_module(argv + ["--input", str(fifo)], tmp_path)
    writer.join(5)
    assert proc.returncode == 1 and proc.stdout == b""
    assert proc.stderr.decode() == (f"parse: {message} path={fifo} "
                                    f"line={line}\n")


@pytest.mark.parametrize("argv,data,message,line", PIPED)
def test_reader_names_bad_line_of_stdin(argv, data, message, line, tmp_path):
    proc = run_module(argv + ["--input", "/dev/stdin"], tmp_path, input=data)
    assert proc.returncode == 1 and proc.stdout == b""
    assert proc.stderr.decode() == (f"parse: {message} path=/dev/stdin "
                                    f"line={line}\n")


@pytest.mark.parametrize("argv,data", [
    (FORWARD, b"1\r\n2\n\n3\n4"),
    (FLOW, b"2 2\r\n0 0 1\n1 1 2\n"),
])
def test_manifest_digests_piped_input(argv, data, tmp_path):
    mani = tmp_path / "runs.jsonl"
    proc = run_module(argv + ["--input", "/dev/stdin", "--manifest", str(mani)],
                      tmp_path, input=data)
    assert proc.returncode == 0, proc.stderr
    rec = json.loads(mani.read_text())
    assert rec["inputs"] == {"/dev/stdin": hashlib.sha256(data).hexdigest()}


def test_manifest_runs_open_their_input_once(tmp_path, capsys, cachedir,
                                            monkeypatch):
    opened = []

    def counted(opener):
        def wrapper(file, *args, **kwargs):
            opened.append(file)
            return opener(file, *args, **kwargs)
        return wrapper

    monkeypatch.setattr("builtins.open", counted(open))
    monkeypatch.setattr(os, "open", counted(os.open))
    (tmp_path / "v.csv").write_text("".join(f"{v}\n" for v in range(8)))
    (tmp_path / "h.coo").write_text("2 2\n0 0 1\n1 1 2\n")
    mani = str(tmp_path / "runs.jsonl")
    runs = [FORWARD + ["--input", "v.csv", "--output", "p.txt"],
            INVERSE + ["--input", "p.txt", "--output", "y.csv"],
            FLOW + ["--input", "h.coo", "--output", "f.coo"]]
    monkeypatch.chdir(tmp_path)
    for argv in runs:
        opened.clear()
        assert run(argv + ["--manifest", mani]) == 0
        source = argv[argv.index("--input") + 1]
        assert opened.count(source) == 1, (argv, opened)
    recs = map(json.loads, (tmp_path / "runs.jsonl").read_text().splitlines())
    assert [list(r["inputs"]) for r in recs] == [["v.csv"], ["p.txt"], ["h.coo"]]


def test_runs_without_a_manifest_digest_nothing(tmp_path, capsys, cachedir,
                                                monkeypatch):
    # outputs and inputs are hashed for the manifest alone
    made = []
    monkeypatch.setattr(hashlib, "sha256", lambda *a: made.append(a))
    (tmp_path / "v.csv").write_text("".join(f"{v}\n" for v in range(8)))
    (tmp_path / "h.coo").write_text("2 2\n0 0 1\n1 1 2\n")
    monkeypatch.chdir(tmp_path)
    for argv in (["filters", "--order", "2"],
                 FORWARD + ["--input", "v.csv", "--output", "p.txt"],
                 INVERSE + ["--input", "p.txt"],
                 FLOW + ["--input", "h.coo", "--output", "f.coo",
                         "--log", "f.log"]):
        assert run(argv) == 0
    capsys.readouterr()
    assert made == []


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


BLAS_THREAD_RUNS = [
    ["filters", "--order", "5", "--output", "filters.csv"],
    ["scalfun", "--order", "5", "--level", "8", "--output", "scalfun.csv"],
    ["dwt", "--order", "5", "--levels", "11", "--input", "{vector}",
     "--direction", "forward", "--output", "pyramid.txt"],
    ["dwt", "--order", "5", "--levels", "11", "--input", "pyramid.txt",
     "--direction", "inverse", "--output", "back.csv"],
    ["coeffs", "--order", "5", "--kind", "gamma3", "--output", "gamma3.tbl"],
    ["coeffs", "--order", "5", "--kind", "gamma4", "--output", "gamma4.tbl"],
    ["hamiltonian", "--order", "3", "--modes", "4", "--nmax", "3",
     "--mass2", "1", "--lambda", "0.1", "--eigs", "4",
     "--dump-matrix", "h256.coo", "--output", "hamiltonian.csv"],
    ["flow", "--input", "h256.coo", "--generator", "block",
     "--partition", "128", "--lambda-end", "0.001",
     "--output", "flow-block.txt", "--log", "flow-block.log"],
    ["flow", "--input", "h256.coo", "--generator", "diag",
     "--lambda-end", "0.001", "--output", "flow-diag.txt",
     "--log", "flow-diag.log"],
    ["hamiltonian", "--order", "3", "--modes", "3", "--nmax", "4",
     "--mass2", "1", "--lambda", "0.1", "--eigs", "4",
     "--dump-matrix", "h125.coo", "--output", "hamiltonian125.csv"],
    ["flow", "--input", "h125.coo", "--generator", "diag",
     "--lambda-end", "0.05", "--output", "flow125-diag.txt",
     "--log", "flow125-diag.log"],
    ["flow", "--input", "h125.coo", "--generator", "block",
     "--partition", "37", "--lambda-end", "0.001",
     "--output", "flow125-block37.txt", "--log", "flow125-block37.log"],
    ["flow", "--input", "h125.coo", "--generator", "block",
     "--partition", "100", "--lambda-end", "0.05",
     "--output", "flow125-block100.txt", "--log", "flow125-block100.log"],
    ["diagnose", "--order", "3", "--scale", "4", "--probe", "partition",
     "--output", "partition.csv"],
    ["diagnose", "--order", "3", "--scale", "4", "--probe", "projection",
     "--output", "projection.csv"],
    ["diagnose", "--order", "3", "--scale", "4", "--probe", "commutator",
     "--output", "commutator.csv"],
]
FLOW_LOGS = ("flow-block.log", "flow-diag.log", "flow125-diag.log",
             "flow125-block37.log", "flow125-block100.log")


def test_outputs_independent_of_blas_threads(tmp_path):
    # the analysis step, the eigensolver, the flow's right-hand sides and
    # the kernel probes' pairings are where BLAS could enter; one and two
    # threads must give the same bytes.  Each run starts from a cold table
    # cache of its own, so the cold K=5 gamma tables would differ if they
    # were solved on each run (a dense solve's last bits move with the
    # thread count).  The flow logs' drift column comes from eigvalsh and
    # is the one column left out; the lambda and off-norm columns must
    # agree
    vector = tmp_path / "v.csv"
    vector.write_text("\n".join(
        "%.17g" % v for v in np.random.default_rng(14).normal(size=2**14)))
    argv = json.dumps([[arg.format(vector=vector) for arg in args]
                       for args in BLAS_THREAD_RUNS])
    code = ("import json, sys; from wavefield.cli import run; "
            "sys.exit(max([run(a) for a in json.loads(sys.argv[1])]))")
    outputs = []
    for threads in ("1", "2"):
        work = tmp_path / f"threads-{threads}"
        work.mkdir()
        env = dict(src_env(), OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads,
                   WAVEFIELD_CACHE=str(tmp_path / f"cache-{threads}"))
        proc = subprocess.run([sys.executable, "-c", code, argv], cwd=work,
                              env=env, capture_output=True, text=True,
                              timeout=60)
        assert proc.returncode == 0, proc.stderr
        outputs.append({p.name: p.read_bytes() for p in work.iterdir()
                        if p.is_file()})
    assert sorted(outputs[0]) == sorted([
        "back.csv", "filters.csv", "pyramid.txt", "scalfun.csv",
        "gamma3.tbl", "gamma4.tbl",
        "hamiltonian.csv", "h256.coo", "flow-block.txt", "flow-diag.txt",
        "hamiltonian125.csv", "h125.coo", "flow125-diag.txt",
        "flow125-block37.txt", "flow125-block100.txt",
        "partition.csv", "projection.csv", "commutator.csv", *FLOW_LOGS])
    logs = [{name: [line.rsplit(",", 1)[0]
                    for line in out.pop(name).decode().splitlines()]
             for name in FLOW_LOGS} for out in outputs]
    assert logs[0] == logs[1]
    assert outputs[0] == outputs[1]


def test_cli_import_leaves_scipy_integrate_out():
    # importing scipy.integrate costs about 0.2 s and 18 MiB; the flow
    # carries its Runge-Kutta tableau as literals so that no CLI start
    # pays for it
    code = ("import sys, wavefield.cli; "
            "sys.exit('scipy.integrate' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, env=src_env())
    assert proc.returncode == 0, proc.stderr or "scipy.integrate was imported"


def test_runs_without_a_hamiltonian_leave_scipy_and_mpmath_out(tmp_path):
    # scipy.sparse and scipy.sparse.linalg cost about 0.3 s and 30 MiB of
    # a start and mpmath another 22 ms; only hamiltonian loads scipy, and
    # the filter taps are literals
    vals = tmp_path / "v.txt"
    vals.write_text("".join("%.17g\n" % v for v in np.linspace(-1, 1, 64)))
    mat = tmp_path / "h.coo"
    mat.write_text("3 5\n0 0 1\n0 1 0.5\n1 0 0.5\n1 1 2\n2 2 -0.0\n")
    pyr, out = str(tmp_path / "pyr.txt"), str(tmp_path / "out.txt")
    runs = [
        ["filters", "--order", "3"],
        ["scalfun", "--order", "3", "--level", "6", "--derivative"],
        ["dwt", "--order", "3", "--levels", "2", "--input", str(vals),
         "--direction", "forward", "--output", pyr],
        ["dwt", "--order", "3", "--levels", "2", "--input", pyr,
         "--direction", "inverse"],
        ["coeffs", "--order", "3", "--kind", "gamma4", "--scale", "1",
         "--verify-oracle", "8"],
        ["diagnose", "--order", "3", "--scale", "2", "--probe", "partition"],
        ["diagnose", "--order", "3", "--scale", "2", "--probe", "projection"],
        ["diagnose", "--order", "3", "--scale", "2", "--probe", "commutator"],
        ["flow", "--input", str(mat), "--generator", "diag",
         "--lambda-end", "0.01"],
    ]
    code = (
        "import sys\n"
        "from wavefield.cli import run\n"
        f"for argv in {runs!r}:\n"
        "    if '--output' not in argv:\n"
        f"        argv += ['--output', {out!r}]\n"
        "    if run(argv) != 0:\n"
        "        sys.exit('failed: ' + ' '.join(argv))\n"
        "loaded = [m for m in ('scipy.sparse', 'scipy.linalg',\n"
        "                      'scipy.integrate', 'mpmath') if m in sys.modules]\n"
        "sys.exit(', '.join(loaded) + ' imported' if loaded else 0)\n"
    )
    env = dict(src_env(), WAVEFIELD_CACHE=str(tmp_path / "cache"))
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr


def test_hamiltonian_loads_scipy_only_for_arpack(tmp_path):
    # up to dimension 128 the eigensolve is dense and the dump is written
    # from the numpy expansion of the stored half; only ARPACK's path, the
    # dimension-256 run last, loads scipy
    small = ["hamiltonian", "--order", "3", "--modes", "3", "--nmax", "4",
             "--mass2", "1", "--lambda", "0.1", "--eigs", "4"]
    runs = [small, small + ["--dump-matrix", str(tmp_path / "h125.coo")]]
    large = ["hamiltonian", "--order", "3", "--modes", "4", "--nmax", "3",
             "--mass2", "1", "--lambda", "0.1", "--eigs", "4"]
    code = (
        "import sys\n"
        "from wavefield.cli import run\n"
        "def scipy_modules():\n"
        "    return [m for m in sys.modules if m.split('.')[0] == 'scipy']\n"
        f"for argv in {runs!r}:\n"
        f"    if run(argv + ['--output', {str(tmp_path / 'out.csv')!r}]):\n"
        "        sys.exit('failed: ' + ' '.join(argv))\n"
        "if scipy_modules():\n"
        "    sys.exit('imported ' + ', '.join(sorted(scipy_modules())[:4]))\n"
        f"if run({large!r} + ['--output', {str(tmp_path / 'out.csv')!r}]):\n"
        "    sys.exit('failed at dimension 256')\n"
        "sys.exit(0 if 'scipy.sparse.linalg' in sys.modules else 'no ARPACK')\n"
    )
    env = dict(src_env(), WAVEFIELD_CACHE=str(tmp_path / "cache"))
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr


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
