"""Acceptance checklist.

Twelve numbered criteria, one test each, run in order.  Every test
appends a single PASS/FAIL line (headline numbers, elapsed seconds) to
acceptance_report.txt in the working directory and prints the same
line, then asserts.  Tolerances and runtime budgets are pinned inside
each test; a criterion that cannot meet its stated tolerance fails
honestly with the measured values on its line.
"""

import time

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from wavefield.connection import (
    derivative_overlaps,
    extrapolated_oracle,
    gamma_tensor,
    oracle_deviation,
    recursion_residual,
    rescale_tensor,
    resolve_d_exponent,
    wrap_matrix,
    wrap_tensor_dense,
)
from wavefield.diagnostics import (
    KernelProbe,
    gaussian_probe,
    kernel_projection_error,
    project,
    wavelet_grid,
)
from wavefield.filters import constraint_residuals, make_filters
from wavefield.flow import (
    FlowState,
    coupling_matrix,
    split_tensors,
    srg_flow,
)
from wavefield.fock import (
    FockBasis,
    ModelParams,
    build_phi4_hamiltonian,
    free_reference_spectrum,
    lanczos_lowest,
)
from wavefield.scaling import (
    integer_values,
    reproduction_coeffs,
    scaling_samples,
)
from wavefield.transform import (
    CoeffVector,
    max_levels,
    multilevel,
    stage_matrix,
)

_LINES = []


@pytest.fixture(scope="module", autouse=True)
def _report():
    yield
    with open("acceptance_report.txt", "w", encoding="utf-8") as fh:
        fh.write("\n".join(_LINES) + "\n")


def _record(num, ok, t0, detail):
    line = "criterion %02d: %s [%5.1fs] %s" % (
        num, "PASS" if ok else "FAIL", time.perf_counter() - t0, detail)
    _LINES.append(line)
    print(line)
    assert ok, line


def test_criterion_01_filter_constraints():
    t0 = time.perf_counter()
    bad = []
    worst = 0.0
    for K in range(1, 11):
        r = constraint_residuals(make_filters(K).h)
        mom_tol = 1e-10 if K >= 8 else 1e-12
        worst = max(worst, r["sum"], r["orthonormality"], r["moments"])
        if r["sum"] > 1e-12 or r["orthonormality"] > 1e-12:
            bad.append((K, "base", max(r["sum"], r["orthonormality"])))
        if r["moments"] > mom_tol:
            bad.append((K, "moments", r["moments"]))
    dt = time.perf_counter() - t0
    ok = not bad and dt < 1.0
    _record(1, ok, t0,
            "constraint residuals K=1..10, worst %.2e%s" %
            (worst, "" if not bad else "; violations %r" % bad))


def test_criterion_02_k2_closed_form():
    t0 = time.perf_counter()
    s3 = np.sqrt(3.0)
    closed = np.array([1 + s3, 3 + s3, 3 - s3, 1 - s3]) / (4 * np.sqrt(2))
    dev = np.abs(np.asarray(make_filters(2).h) - closed).max()
    _record(2, dev < 1e-14, t0, "K=2 taps vs closed form, dev %.2e" % dev)


def test_criterion_03_scaling_fixed_point():
    t0 = time.perf_counter()
    s3 = np.sqrt(3.0)
    iv = integer_values(2).values
    dev_iv = max(abs(iv[1] - (1 + s3) / 2), abs(iv[2] - (1 - s3) / 2))
    worst_sum = 0.0
    for K in range(2, 7):
        s = scaling_samples(K, 12).values
        worst_sum = max(worst_sum, abs(s[:-1].sum() * 2.0 ** -12 - 1.0))
    dt = time.perf_counter() - t0
    ok = dev_iv < 1e-12 and worst_sum < 1e-8 and dt < 5.0
    _record(3, ok, t0,
            "K=2 integer values dev %.2e; level-12 mass dev %.2e (K=2..6)"
            % (dev_iv, worst_sum))


def test_criterion_04_partition_and_reproduction():
    t0 = time.perf_counter()
    level, g = 10, 2 ** 10
    worst_part, worst_rep = 0.0, 0.0
    for K in range(2, 7):
        s = scaling_samples(K, level).values
        acc = np.zeros(g + 1)
        for n in range(-(2 * K - 2), 1):
            seg = s[-n * g: -n * g + g + 1]
            acc[: len(seg)] += seg
        worst_part = max(worst_part, np.abs(acc - 1.0).max())
        width = 2 * K - 1
        ns = range(-(2 * K - 2), width + 1)
        x = np.arange(width * g + 1) / g
        for m in range(K):
            c = reproduction_coeffs(K, m, ns)
            rec = np.zeros_like(x)
            for cn, n in zip(c, ns):
                lo = n * g
                a, b = max(lo, 0), min(lo + len(s), len(rec))
                if a < b:
                    rec[a:b] += cn * s[a - lo: b - lo]
            worst_rep = max(worst_rep, np.abs(rec - x ** m).max())
    ok = worst_part < 1e-10 and worst_rep < 1e-8
    _record(4, ok, t0,
            "partition dev %.2e (<1e-10); reproduction dev %.2e (<1e-8), "
            "level-10 grids K=2..6 m<K" % (worst_part, worst_rep))


def test_criterion_05_transform():
    t0 = time.perf_counter()
    rng = np.random.default_rng(99)
    worst_pr, worst_par = 0.0, 0.0
    for K in range(1, 7):
        fp = make_filters(K)
        for n in (16, 32, 64, 128, 256, 512, 1024):
            levels = max_levels(n, K)
            if levels < 1:
                continue
            x = rng.standard_normal(n)
            pyr = multilevel(CoeffVector(0, x), fp, levels, "forward")
            back = multilevel(pyr, fp, levels, "inverse").values
            worst_pr = max(worst_pr, np.abs(back - x).max())
            flat = pyr.flatten()
            worst_par = max(worst_par,
                            abs((flat ** 2).sum() - (x ** 2).sum()))
    worst_orth = 0.0
    for K in range(1, 7):
        fp = make_filters(K)
        for n in (16, 32, 64):
            if n < 2 * K:
                continue
            w = stage_matrix(fp, n)
            worst_orth = max(worst_orth,
                             np.abs(w @ w.T - np.eye(n)).max())
    dt = time.perf_counter() - t0
    ok = worst_pr < 1e-12 and worst_par < 1e-12 and worst_orth < 1e-12 \
        and dt < 5.0
    _record(5, ok, t0,
            "reconstruction dev %.2e; Parseval dev %.2e; stage "
            "orthogonality dev %.2e" % (worst_pr, worst_par, worst_orth))


def test_criterion_06_connection_coefficients():
    t0 = time.perf_counter()
    worst_res, worst_sum = 0.0, 0.0
    oracle = {}  # table -> (extrapolated_oracle report, tolerance)
    for K in range(2, 6):
        fp = make_filters(K)
        for m in (3, 4):
            t = gamma_tensor(K, m)
            worst_res = max(worst_res, recursion_residual(t, fp))
            oracle["gamma K=%d m=%d" % (K, m)] = \
                (extrapolated_oracle(t, 12), 1e-6)
        sums = {}
        for (n2, n3), v in gamma_tensor(K, 3).sorted_items():
            sums[n2] = sums.get(n2, 0.0) + v
        for n2, s in sums.items():
            worst_sum = max(worst_sum, abs(s - (1.0 if n2 == 0 else 0.0)))
    for K in range(3, 6):
        fp = make_filters(K)
        t = derivative_overlaps(K)
        worst_res = max(worst_res, recursion_residual(t, fp))
        oracle["D K=%d" % K] = (extrapolated_oracle(t, 14), 1e-4)
    bad = ["%s %.3e" % (name, r["extrapolated"])
           for name, (r, tol) in oracle.items() if r["extrapolated"] > tol]
    dt = time.perf_counter() - t0
    ok = worst_res < 1e-12 and worst_sum < 1e-10 and not bad and dt < 60.0
    detail = ("fixed-point residual %.2e (<1e-12); 3-point sum rule %.2e "
              "(<1e-10); oracle deviation raw -> Aitken-extrapolated "
              "(gamma level 12 <1e-6, D level 14 <1e-4), [raw fallbacks/"
              "entries]: " % (worst_res, worst_sum)
              + ", ".join("%s %.1e -> %.1e [%d/%d]"
                          % (name, r["raw"], r["extrapolated"],
                             r["fallbacks"], r["entries"])
                          for name, (r, _) in oracle.items()))
    if bad:
        detail += "; over tolerance: " + ", ".join(bad)
    _record(6, ok, t0, detail)


def test_criterion_07_scaling_identities():
    t0 = time.perf_counter()
    worst = 0.0
    for m in (3, 4):
        base = gamma_tensor(3, m)
        for k in (1, 2):
            worst = max(worst, oracle_deviation(rescale_tensor(base, k), 12))
    res = resolve_d_exponent(3, 12)
    dt = time.perf_counter() - t0
    ok = worst < 1e-6 and res["exponent"] == 2 \
        and res["deviation"] < res["rejected_deviation"] and dt < 60.0
    _record(7, ok, t0,
            "rescaled 3/4-point tables vs scale-k oracles (k=1,2) dev "
            "%.2e (<1e-6); derivative table scales as 2^(%d k): resolved "
            "exponent %d (oracle dev %.3f, rejected exponent %d dev %.3f)"
            % (worst, res["exponent"], res["exponent"], res["deviation"],
               res["rejected_exponent"], res["rejected_deviation"]))


def test_criterion_08_free_sector():
    t0 = time.perf_counter()
    d3 = derivative_overlaps(3)
    g43 = gamma_tensor(3, 4)
    # one mode: gamma = omega = 1, spectrum is the integers
    h = build_phi4_hamiltonian(ModelParams(1.0, 0.0, 1.0), d3, None,
                               FockBasis(1, 8))
    dev1 = max(abs(e - j) for j, (e, _) in enumerate(lanczos_lowest(h, 4)))
    # two modes at matched gamma vs the closed-form ladder
    om, _ = free_reference_spectrum(ModelParams(1.0, 0.0, 1.0), d3, 2)
    p = ModelParams(1.0, 0.0, float(np.sqrt(om[0] * om[1])))
    hh = build_phi4_hamiltonian(p, d3, None, FockBasis(2, 20))
    om2, e0 = free_reference_spectrum(p, d3, 2)
    evs = np.linalg.eigvalsh(hh.matrix.toarray())
    ladder = sorted(e0 + i * om2[0] + j * om2[1]
                    for i in range(6) for j in range(6))
    dev2 = np.abs(evs[:6] - np.array(ladder[:6])).max()
    # vacuum expectation is structurally zero for any parameter draw
    rng = np.random.default_rng(11)
    b = FockBasis(2, 4)
    zeros_ok = True
    for _ in range(20):
        pr = ModelParams(float(rng.uniform(-1, 4)),
                         float(rng.uniform(0, 2)),
                         float(rng.uniform(0.3, 3)))
        hq = build_phi4_hamiltonian(pr, d3, g43, b)
        zeros_ok = zeros_ok and hq.matrix[0, 0] == 0.0
    dt = time.perf_counter() - t0
    ok = dev1 < 1e-10 and dev2 < 1e-6 and zeros_ok and dt < 120.0
    _record(8, ok, t0,
            "one-mode integer spectrum dev %.2e (<1e-10); two-mode ladder "
            "dev %.2e (<1e-6) at cutoff 20; vacuum element exactly zero in "
            "20/20 draws: %s" % (dev1, dev2, zeros_ok))


def test_criterion_09_variational_perturbative():
    t0 = time.perf_counter()
    d3 = derivative_overlaps(3)
    g43 = gamma_tensor(3, 4)
    es = []
    for nmax in (2, 3, 4, 5):
        h = build_phi4_hamiltonian(ModelParams(1.0, 0.1), d3, g43,
                                   FockBasis(4, nmax))
        es.append(lanczos_lowest(h, 1)[0][0])
    monotone = all(b <= a + 1e-10 for a, b in zip(es, es[1:]))
    b4 = FockBasis(4, 4)
    h0 = build_phi4_hamiltonian(ModelParams(1.0, 0.0), d3, g43, b4)
    h_unit = build_phi4_hamiltonian(ModelParams(1.0, 1.0), d3, g43, b4)
    v = (h_unit.matrix - h0.matrix).tocsr()
    _, vec = spla.eigsh(h0.matrix, k=1, which="SA")
    psi = vec[:, 0]
    slope_ref = float(psi @ (v @ psi))
    lam = 1e-3
    h1 = build_phi4_hamiltonian(ModelParams(1.0, lam), d3, g43, b4)
    slope_num = (lanczos_lowest(h1, 1)[0][0]
                 - lanczos_lowest(h0, 1)[0][0]) / lam
    rel = abs(slope_num - slope_ref) / abs(slope_ref)
    dt = time.perf_counter() - t0
    ok = monotone and rel < 0.01 and dt < 600.0
    _record(9, ok, t0,
            "ground energy over cutoffs 2..5: %s (non-increasing: %s); "
            "slope at lambda=1e-3: %.6f vs first-order %.6f, rel dev "
            "%.2e (<1e-2)" % (["%.6f" % e for e in es], monotone,
                              slope_num, slope_ref, rel))


def test_criterion_10_scale_splitting():
    t0 = time.perf_counter()
    fp = make_filters(3)
    d1 = rescale_tensor(derivative_overlaps(3), 1)
    g41 = rescale_tensor(gamma_tensor(3, 4), 1)
    sp = split_tensors(d1, g41, fp, 16)
    dev_ss = np.abs(sp.ss - wrap_matrix(derivative_overlaps(3), 8)).max()
    # the ssss block is held as its a = 0 slab, in the convention of the
    # wrapped coarse cube
    dev_4 = np.abs(sp.quartic["ssss"]
                   - wrap_tensor_dense(gamma_tensor(3, 4), 8)).max()
    dt = time.perf_counter() - t0
    ok = dev_ss < 1e-10 and dev_4 < 1e-10 and dt < 60.0
    _record(10, ok, t0,
            "coarse block of split derivative table dev %.2e; coarse "
            "block of split 4-point table dev %.2e (K=3, 16 sites, both "
            "<1e-10)" % (dev_ss, dev_4))


def test_criterion_11_srg_flow():
    t0 = time.perf_counter()
    worst_drift, breaks = 0.0, 0
    for i in range(20):
        rng = np.random.default_rng(1000 + i)
        a = rng.standard_normal((16, 16))
        h0 = 0.5 * (a + a.T)
        gen, part = (("wegner-diagonal", None) if i % 2 == 0
                     else ("wegner-block", 8))
        fin, _, rep = srg_flow(FlowState(0.0, h0, gen, part), 1.0)
        drift = np.abs(np.sort(np.linalg.eigvalsh(fin.h_matrix))
                       - np.sort(np.linalg.eigvalsh(h0))).max()
        worst_drift = max(worst_drift, drift)
        breaks += rep["monotonicity_breaks"]
    fp = make_filters(3)
    sp = split_tensors(rescale_tensor(derivative_overlaps(3), 1),
                       rescale_tensor(gamma_tensor(3, 4), 1), fp, 16)
    h0 = coupling_matrix(sp) + np.eye(16)
    fin, _, _ = srg_flow(FlowState(0.0, h0, "wegner-block", 8), 0.05)
    sw = np.linalg.norm(fin.h_matrix[:8, 8:])
    dt = time.perf_counter() - t0
    ok = worst_drift < 1e-8 and breaks == 0 and sw < 1e-6 and dt < 60.0
    _record(11, ok, t0,
            "20 seeded 16x16 flows: drift %.2e (<1e-8), monotonicity "
            "breaks %d; two-scale demo cross-block norm %.2e (<1e-6)"
            % (worst_drift, breaks, sw))


def test_criterion_12_diagnostics():
    t0 = time.perf_counter()
    g = gaussian_probe(12.0, 1.0)
    band_ok, ratios = True, {}
    for order in (2, 3):
        errs = [kernel_projection_error(KernelProbe(order, k, 12), g)
                for k in (2, 3, 4)]
        rs = [cur / prev for prev, cur in zip(errs, errs[1:])]
        ratios[order] = rs
        lo, hi = 0.7 * 2.0 ** -order, 1.3 * 2.0 ** -order
        band_ok = band_ok and all(lo < r < hi for r in rs)
    pair_devs = {}
    for order, shift in ((3, 45), (2, 46)):
        probe = KernelProbe(order, 2, 12)
        w = wavelet_grid(probe, shift)
        pw = project(probe, w)
        x = probe.grid()
        mask = (x >= probe.margin) & (x <= 24.0 - probe.margin)
        pair_devs[order] = abs(float(w[mask] @ pw[mask]) * probe.spacing)
    ann_ok = all(d < 1e-8 for d in pair_devs.values())
    ok = band_ok and ann_ok
    _record(12, ok, t0,
            "gaussian contraction ratios K=2 %s, K=3 %s (bands "
            "[0.7,1.3]*2^-K); wavelet kernel pairing K=2 %.2e, K=3 %.2e "
            "(<1e-8)" % (["%.4f" % r for r in ratios[2]],
                         ["%.4f" % r for r in ratios[3]],
                         pair_devs[2], pair_devs[3]))
