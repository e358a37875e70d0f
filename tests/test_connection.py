import itertools
import os
import pathlib
import subprocess
import sys
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import wavefield
from table_solver import (
    _MAX_SYSTEM_BYTES,
    _admissible_offsets,
    _bordered_system,
    _lstsq_in_place,
    _solve_bordered,
    solve_table,
)
from wavefield.connection import (
    _TABLE_DIR,
    _table_path,
    CoeffTensor,
    aitken_limit,
    derivative_overlaps,
    extrapolated_oracle,
    gamma_tensor,
    load_tensor,
    oracle_deviation,
    quadrature_oracle,
    recursion_residual,
    rescale_tensor,
    resolve_d_exponent,
    save_tensor,
    validate_tensor,
    wrap_matrix,
    wrap_tensor_dense,
)
from wavefield.errors import (
    AlreadyScaledError,
    ConvergenceFailureError,
    CorruptTableError,
    DegenerateFixedPointError,
    IndexRangeError,
    NonDifferentiableOrderError,
    ParseError,
    ShapeError,
    UnsupportedOrderError,
    WavefieldError,
)
from wavefield.filters import make_filters
from wavefield.scaling import moments


def residual_loop(t, fp):
    """Entry-by-entry refinement map, the reference for recursion_residual."""
    h = fp.h
    m = t.arity
    pref = 2.0 ** ((m - 2) / 2.0)
    worst = 0.0
    for tup, v in t.entries.items():
        acc = 0.0
        for c in itertools.product(range(len(h)), repeat=m):
            w = (4.0 * h[c[0]] * h[c[1]] if t.kind == "derivative-D"
                 else pref * float(np.prod(h[list(c)])))
            child = tuple(2 * tup[i] + c[i + 1] - c[0] for i in range(m - 1))
            if child in t.entries:
                acc += w * t.entries[child]
        worst = max(worst, abs(acc - v))
    return worst


def perm_loop(t):
    """Entry-by-entry permutation walk, the reference for validate_tensor's
    permutation rule: max mismatch of each entry against its rebased
    permutations of the full index tuple (0, n2..nm)."""
    worst = 0.0
    m = t.arity
    for tup, v in t.entries.items():
        full = (0,) + tup
        for perm in itertools.permutations(full):
            rebased = tuple(perm[i] - perm[0] for i in range(1, m))
            worst = max(worst, abs(v - t.entries.get(rebased, 0.0)))
    return worst


def table(kind, K, k=0):
    """Order-K table at scale k: D for kind "d", else Gamma-kind."""
    t = derivative_overlaps(K) if kind == "d" else gamma_tensor(K, kind)
    return rescale_tensor(t, k)


def shifted(t, offsets, delta):
    entries = dict(t.entries)
    entries[offsets] += delta
    return CoeffTensor(t.kind, t.order, t.scale, entries)


def test_haar_four_point_is_trivial():
    t = gamma_tensor(1, 4)
    assert t.entries == {(0, 0, 0): pytest.approx(1.0, abs=1e-14)}


def test_two_point_is_kronecker():
    for K in (1, 2, 4):
        t = gamma_tensor(K, 2)
        assert t.value((0,)) == 1.0
        assert t.value((1,)) == 0.0


def test_gamma_arity_rejected():
    with pytest.raises(IndexRangeError):
        gamma_tensor(2, 5)


@pytest.mark.parametrize("K,m,n_entries", [(2, 3, 19), (3, 3, 61), (2, 4, 65), (3, 4, 369)])
def test_gamma_fixed_point_residual(K, m, n_entries):
    fp = make_filters(K)
    t = gamma_tensor(K, m)
    assert len(t.entries) == n_entries
    assert recursion_residual(t, fp) < 1e-12


@pytest.mark.parametrize("K", [2, 3, 4])
def test_gamma3_sum_rule(K):
    t = gamma_tensor(K, 3)
    R = t.support_radius
    for n2 in range(-R, R + 1):
        acc = sum(v for (a, _), v in t.entries.items() if a == n2)
        assert abs(acc - (1.0 if n2 == 0 else 0.0)) < 1e-10, n2


@pytest.mark.parametrize("K", [2, 3])
def test_gamma4_partition_rule(K):
    g3, g4 = gamma_tensor(K, 3), gamma_tensor(K, 4)
    pairs = {t[:2] for t in g4.entries}
    for pair in pairs:
        acc = sum(v for tup, v in g4.entries.items() if tup[:2] == pair)
        assert abs(acc - g3.value(pair)) < 1e-10, pair


@pytest.mark.parametrize("K,m", [(2, 3), (3, 3), (2, 4), (3, 4)])
def test_gamma_permutation_symmetry(K, m):
    t = gamma_tensor(K, m)
    validate_tensor(t)  # includes the permutation check at 1e-12


@pytest.mark.parametrize("K,m,bound", [(2, 3, 2e-6), (3, 3, 1e-9), (2, 4, 5e-6), (3, 4, 1e-9)])
def test_gamma_against_quadrature(K, m, bound):
    # level-12 Riemann sums; K=2 sits at ~1.2e-6 / 2.8e-6 because the
    # low-order scaling function is barely Holder continuous, so the
    # quadrature converges slowly; higher K is far below the bound
    assert oracle_deviation(gamma_tensor(K, m), 12) < bound


@pytest.mark.parametrize("K,m", [(3, 2), (4, 2), (2, 3), (3, 3), (2, 4), (3, 4)])
def test_residual_matches_loop_reference(K, m):
    # m = 2 stands for the derivative table D
    fp = make_filters(K)
    t = derivative_overlaps(K) if m == 2 else gamma_tensor(K, m)
    # same products, same summation order: bit-equal
    assert recursion_residual(t, fp) == residual_loop(t, fp)


def test_residual_detects_perturbed_entry():
    fp = make_filters(3)
    t = gamma_tensor(3, 4)
    assert recursion_residual(t, fp) < 1e-12
    bad = shifted(t, (1, 0, -1), 1e-6)
    assert recursion_residual(bad, fp) > 1e-7
    assert recursion_residual(bad, fp) == residual_loop(bad, fp)


def test_aitken_limit_of_geometric_sequence():
    # S_j = 2 + 3 * 0.4^j has the exact limit 2
    sums = 2.0 + 3.0 * 0.4 ** np.arange(4.0)
    limit, fell_back = aitken_limit(sums[:, None])
    assert not fell_back.any()
    assert abs(limit[0] - 2.0) < 1e-14


@pytest.mark.parametrize("diffs", [
    (0.1, -0.05, 0.025),     # ratio -0.5: oscillating
    (0.1, 0.1, 0.1),         # ratio 1: no convergence
    (0.1, 0.2, 0.4),         # ratio 2: diverging
    (0.1, 0.05, 0.0125),     # ratios 0.5 then 0.25: unstable
    (0.0, 0.05, 0.025),      # zero first difference
])
def test_aitken_limit_falls_back_to_raw(diffs):
    sums = 1.0 + np.concatenate([[0.0], np.cumsum(diffs)])
    limit, fell_back = aitken_limit(sums[:, None])
    assert fell_back.tolist() == [True]
    assert limit[0] == sums[3]


def test_aitken_limit_ignores_rounding_noise():
    # geometric-looking differences at a few ulps must not be extrapolated
    eps = np.finfo(float).eps
    good = 0.5 + np.array([0.0, 1e-3, 1.5e-3, 1.75e-3])
    noise = 0.5 + eps * np.array([0.0, 8.0, 12.0, 14.0])
    limit, fell_back = aitken_limit(np.stack([good, noise], axis=1))
    assert fell_back.tolist() == [False, True]
    assert limit[1] == noise[3]
    assert abs(limit[0] - 0.502) < 1e-15


def test_aitken_limit_needs_four_levels():
    with pytest.raises(ShapeError):
        aitken_limit(np.ones((3, 2)))


def test_extrapolated_oracle_k2_gamma3():
    t = gamma_tensor(2, 3)
    rep = extrapolated_oracle(t, 12)
    assert rep["entries"] == 19 and rep["fallbacks"] == 0
    # the raw level-12 sum alone misses the 1e-6 tolerance on an exact table
    assert rep["raw"] > 1e-6
    assert rep["extrapolated"] < 1e-7
    # a 2e-6 shift of one entry is visible after extrapolation, where the
    # raw oracle's own 1.2e-6 error hides it
    shift = extrapolated_oracle(shifted(t, (1, 1), 2e-6), 12)
    assert shift["extrapolated"] > 1e-6


def test_extrapolated_oracle_level_range():
    t = gamma_tensor(2, 3)
    for level in (3, 17):
        with pytest.raises(IndexRangeError):
            extrapolated_oracle(t, level)


def test_derivative_table_k3_exact_values():
    fp = make_filters(3)
    t = derivative_overlaps(3)
    # the order-3 row is rational (Beylkin 1992); D_n = D_{-n}
    exact = {0: 295 / 56, 1: -356 / 105, 2: 92 / 105, 3: -4 / 35, 4: -3 / 560}
    assert sorted(t.entries) == [(n,) for n in range(-4, 5)]
    for (n,), v in t.entries.items():
        assert abs(v - exact[abs(n)]) < 1e-12, n
    offs = np.array([o for (o,) in t.entries])
    vals = np.array([t.entries[(o,)] for o in offs])
    assert abs(vals.sum()) < 1e-10
    assert abs((offs**2 * vals).sum() + 2.0) < 1e-12
    assert max(abs(t.value((n,)) - t.value((-n,))) for (n,) in t.entries) < 1e-12
    assert recursion_residual(t, fp) < 1e-12


def test_derivative_requires_order_three():
    with pytest.raises(NonDifferentiableOrderError):
        derivative_overlaps(2)


@pytest.mark.parametrize("K,bound", [(3, 2.5e-3), (4, 1e-4), (5, 1e-4)])
def test_derivative_against_quadrature(K, bound):
    # the finite-difference oracle at level 14 is limited by the Holder
    # exponent of s'; measured 1.79e-3 (K=3), 3.98e-6 (K=4), 1.19e-7 (K=5)
    assert oracle_deviation(derivative_overlaps(K), 14) < bound


def test_oracle_indicator_norm():
    assert abs(quadrature_oracle(1, [(0, 0), (0, 0)], 10) - 1) < 1e-12


def test_oracle_orthonormality_k2():
    assert abs(quadrature_oracle(2, [(0, 0), (1, 0)], 12)) < 1e-4
    assert abs(quadrature_oracle(2, [(0, 0), (0, 0)], 12) - 1) < 1e-4


def test_oracle_first_moment_k2():
    v = quadrature_oracle(2, [(0, 0)], 12, weight_power=1)
    assert abs(v - (3 - np.sqrt(3.0)) / 2) < 1e-6


@settings(max_examples=40, deadline=None)
@given(K=st.integers(2, 8), level=st.integers(4, 12), data=st.data())
def test_oracle_moments_match_recursion(K, level, data):
    # the dyadic sum of x^p s(x) is exact for p < K, so the cascade and
    # the scaling-equation moment recursion, two independent paths, agree
    # to rounding (worst seen 5.2e-14)
    p = data.draw(st.integers(0, K - 1), label="p")
    want = moments(K, p)
    got = quadrature_oracle(K, [(0, 0)], level, weight_power=p)
    assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


def test_oracle_disjoint_supports():
    assert quadrature_oracle(2, [(0, 0), (5, 0)], 10) == 0.0


def test_oracle_input_validation():
    with pytest.raises(ShapeError):
        quadrature_oracle(3, [(0, 0)] * 5, 10)
    with pytest.raises(IndexRangeError):
        quadrature_oracle(3, [(0, 0)], 17)
    with pytest.raises(NonDifferentiableOrderError):
        quadrature_oracle(2, [(0, 1)], 10)
    with pytest.raises(ShapeError):
        quadrature_oracle(3, [(0, 2)], 10)
    with pytest.raises(ShapeError):
        quadrature_oracle(3, [(0, 0)], 10, scale=1, weight_power=1)


def test_rescale_gamma4_doubles():
    t = gamma_tensor(2, 4)
    t1 = rescale_tensor(t, 1)
    assert t1.scale == 1
    for tup, v in t.entries.items():
        assert t1.value(tup) == 2.0 * v


def test_rescale_gamma2_unchanged():
    t = gamma_tensor(3, 2)
    assert rescale_tensor(t, 5).value((0,)) == 1.0


def test_rescale_rejects_scaled_input():
    t = rescale_tensor(gamma_tensor(2, 3), 1)
    with pytest.raises(AlreadyScaledError):
        rescale_tensor(t, 1)


@pytest.mark.parametrize("kind,last", [("d", 510), (4, 1023)])
def test_rescale_refuses_scales_past_float_range(kind, last):
    # 4^511 times D's central 5.27 overflows, and from 2^1024 on the
    # factor itself does
    t = derivative_overlaps(3) if kind == "d" else gamma_tensor(3, kind)
    assert rescale_tensor(t, last).scale == last
    for k in (last + 1, 3000):
        with pytest.raises(IndexRangeError, match="float range"):
            rescale_tensor(t, k)


@pytest.mark.parametrize("K,k,bound", [(3, 1, 1e-9), (3, 2, 1e-9)])
def test_rescaled_gamma_matches_scaled_oracle(K, k, bound):
    t = rescale_tensor(gamma_tensor(K, 3), k)
    assert oracle_deviation(t, 12) < bound


def test_rescaled_derivative_matches_scale1_oracle_k4():
    # K=4 keeps the finite-difference error of the oracle below the
    # comparison threshold; K=3 is Holder-limited to ~7e-3 here
    t = rescale_tensor(derivative_overlaps(4), 1)
    assert oracle_deviation(t, 14) < 1e-4


def test_resolve_d_exponent():
    out = resolve_d_exponent(3)
    assert out["exponent"] == 2
    assert out["rejected_exponent"] == 1
    # candidates differ by a factor 2; the gap dwarfs the oracle error
    assert out["rejected_deviation"] > 100 * out["deviation"]


def test_save_load_round_trip(tmp_path):
    for t in (gamma_tensor(2, 3), gamma_tensor(2, 4)):
        p = tmp_path / f"{t.kind}.tbl"
        save_tensor(t, p)
        back = load_tensor(p)
        assert back.kind == t.kind and back.order == t.order and back.scale == t.scale
        assert back.entries == t.entries  # bit-equal via 17 significant digits


def test_save_load_derivative_round_trip(tmp_path):
    t = derivative_overlaps(3)
    p = tmp_path / "d.tbl"
    save_tensor(t, p)
    assert load_tensor(p).entries == t.entries


def test_load_rejects_broken_symmetry(tmp_path):
    t = derivative_overlaps(3)
    p = tmp_path / "d.tbl"
    save_tensor(t, p)
    lines = p.read_text().splitlines()
    # perturb one off-center value
    parts = lines[6].split()
    parts[-1] = format(float(parts[-1]) + 1e-3, ".17g")
    lines[6] = " ".join(parts)
    p.write_text("\n".join(lines) + "\n")
    with pytest.raises(CorruptTableError):
        load_tensor(p)


def test_load_rejects_wrong_order_metadata(tmp_path):
    t = gamma_tensor(2, 3)
    p = tmp_path / "g.tbl"
    save_tensor(t, p)
    lines = p.read_text().splitlines()
    lines[2] = "order 4"  # radius line now contradicts the order
    p.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError):
        load_tensor(p)


def test_load_rejects_malformed_files(tmp_path):
    p = tmp_path / "bad.tbl"
    p.write_text("not a tensor\n")
    with pytest.raises(ParseError):
        load_tensor(p)
    p.write_text("wavefield-tensor 1\nkind gamma-3\norder 2\nscale 0\n")
    with pytest.raises(ParseError):
        load_tensor(p)
    p.write_text(
        "wavefield-tensor 1\nkind gamma-2\norder 1\nscale 0\n"
        "support-radius 0\nentries 2\n0 1.0\n0 1.0\n"
    )
    with pytest.raises(ParseError):
        load_tensor(p)  # duplicate offset


def test_wrap_matrix_two_modes_k3():
    t = derivative_overlaps(3)
    m = wrap_matrix(t, 2)
    assert abs(m[0, 0] - 7.00952381) < 1e-6
    assert abs(m[0, 1] + 7.00952381) < 1e-6
    assert abs(m.sum()) < 1e-9  # row sums inherit sum D = 0
    assert np.linalg.eigvalsh(m)[0] > -1e-10


def test_wrap_matrix_is_circulant():
    t = derivative_overlaps(4)
    m = wrap_matrix(t, 8)
    for i in range(8):
        np.testing.assert_allclose(m[i], np.roll(m[0], i), atol=0)


def test_wrap_tensor_dense_preserves_total():
    t = gamma_tensor(3, 3)
    for n in (2, 4, 16):
        w = wrap_tensor_dense(t, n)
        assert w.shape == (n, n)
        assert abs(w.sum() - 1.0) < 1e-12


def kept_residual(b, rhs):
    """max |B x - rhs| on a copy of B kept from before the solve, which
    overwrites B: the residual of a synthetic bordered system."""
    kept = np.array(b)
    return lambda x: float(np.abs(kept @ x - rhs).max())


def test_degenerate_map_is_rejected():
    # identity map has an eigenvalue-1 space of full dimension: A - I = 0
    b = np.vstack([np.zeros((4, 4)), np.ones(4)])
    rhs = np.array([0.0, 0.0, 0.0, 0.0, 1.0])
    with pytest.raises(DegenerateFixedPointError) as exc:
        _solve_bordered(b, rhs, "synthetic", kept_residual(b, rhs))
    assert "not unique" in str(exc.value)


def test_inconsistent_bordered_system_is_rejected():
    # A = I/2 has no eigenvalue 1: (A - I) x = 0 forces x = 0, which the
    # normalization row x1 + x2 = 1 contradicts; least squares leaves
    # residual 2/9
    b = np.vstack([-0.5 * np.eye(2), np.ones(2)])
    rhs = np.array([0.0, 0.0, 1.0])
    with pytest.raises(DegenerateFixedPointError) as exc:
        _solve_bordered(b, rhs, "synthetic", kept_residual(b, rhs))
    assert "inconsistent" in str(exc.value)
    assert exc.value.context["residual"] == pytest.approx(2.0 / 9.0)


def test_unconverged_svd_is_a_convergence_failure():
    # a NaN leaves dgelsd's SVD unconverged (info > 0 at n = 3; at n = 2
    # a nested routine's negative info comes back); the toolkit's own
    # error, not numpy's LinAlgError, reaches the caller, so the CLI
    # reports it in one line.  LAPACK prints its own complaint to stdout,
    # so only the exception is checked
    for n in (2, 3):
        b = np.vstack([-0.5 * np.eye(n), np.ones(n)])
        b[0, 0] = np.nan
        rhs = np.zeros(n + 1)
        rhs[n] = 1.0
        with pytest.raises(ConvergenceFailureError) as exc:
            _solve_bordered(b, rhs, "synthetic", kept_residual(b, rhs))
        assert isinstance(exc.value, WavefieldError)
        assert exc.value.context["system"] == "synthetic"
        assert exc.value.context["info"] != 0


SMALL_SYSTEMS = ([("derivative-D", K) for K in (3, 4)]
                 + [(f"gamma-{m}", K) for m in (3, 4) for K in range(1, 5)])


@pytest.mark.parametrize("kind,K", SMALL_SYSTEMS + [("gamma-3", 5)])
def test_in_place_solve_matches_lstsq(kind, K):
    # the same dgelsd call as np.linalg.lstsq's, on B itself: x and the
    # singular values bit for bit
    b, rhs, _, _ = _bordered_system(kind, K)
    want_x, _, _, want_sv = np.linalg.lstsq(b, rhs, rcond=None)
    x, sv = _lstsq_in_place(b, rhs, kind)
    assert x.tobytes() == want_x.tobytes()
    assert sv.tobytes() == want_sv.tobytes()


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 40), decades=st.integers(0, 16),
       seed=st.integers(0, 2**32 - 1))
def test_in_place_solve_matches_lstsq_on_random_systems(n, decades, seed):
    # (n+1) x n systems shaped like the bordered ones, singular values
    # spread over up to 16 decades: those below rcond = eps (n+1) are cut
    # from the rank, so a wrong rcond shows in x
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.standard_normal((n + 1, n)))
    v, _ = np.linalg.qr(rng.standard_normal((n, n)))
    b = (u * np.logspace(0, -decades, n)) @ v.T
    rhs = np.zeros(n + 1)
    rhs[n] = 1.0
    want_x, _, _, want_sv = np.linalg.lstsq(b, rhs, rcond=None)
    x, sv = _lstsq_in_place(np.asfortranarray(b), rhs, "random")
    assert x.tobytes() == want_x.tobytes()
    assert sv.tobytes() == want_sv.tobytes()


@pytest.mark.parametrize("kind,K", SMALL_SYSTEMS)
def test_map_residual_matches_kept_system(kind, K):
    # the residual re-applies the map's terms to x; a copy of B kept from
    # before the solve gives the same figure to within one rounding unit
    # of the largest row's terms (D's rows sum terms up to 32 to entries
    # near 5, where the two summation orders differ by 3.1e-15; gamma's
    # agree within 1e-15), at the solution and with one entry moved
    b, rhs, _, residual = _bordered_system(kind, K)
    kept = b.copy()
    x, _ = _lstsq_in_place(b, rhs, kind)
    moved = x.copy()
    moved[len(x) // 2] += 1e-6
    for y in (x, moved):
        rounding = np.finfo(float).eps * (np.abs(kept) @ np.abs(y) + np.abs(rhs)).max()
        assert (abs(residual(y) - np.abs(kept @ y - rhs).max())
                <= max(1e-15, rounding))
    assert residual(moved) > 1e-7


def bincount_bordered(kind, K):
    """The bordered system as a dense map built by per-l1 bincount over a
    child-offset cube, times 4 for D, minus eye, with the normalization
    row vstacked below: the reference for _bordered_system."""
    m = {"derivative-D": 2, "gamma-3": 3, "gamma-4": 4}[kind]
    offsets = list(itertools.product(range(-(2 * K - 2), 2 * K - 1), repeat=m - 1))
    offsets = [t for t in offsets
               if all(abs(a - b) <= 2 * K - 2 for a, b in itertools.combinations(t, 2))]
    h = make_filters(K).h
    taps, nt, width = len(h), len(offsets), m - 1
    off_arr = np.array(offsets, dtype=np.int64)
    reach = 2 * (2 * K - 2) + taps - 1
    lut = np.full((2 * reach + 1,) * width, -1, dtype=np.int64)
    for i, tup in enumerate(offsets):
        lut[tuple(t + reach for t in tup)] = i
    lgrids = np.meshgrid(*([np.arange(taps)] * width), indexing="ij")
    lcombo = np.stack([g.ravel() for g in lgrids], axis=1)
    hprod = np.prod(h[lcombo], axis=1)
    a_flat = np.zeros(nt * nt)
    rows = np.repeat(np.arange(nt, dtype=np.int64), lcombo.shape[0])
    for l1 in range(taps):
        child = 2 * off_arr[:, None, :] + (lcombo - l1)[None, :, :] + reach
        cols = lut[tuple(child[..., i] for i in range(width))].ravel()
        w = np.broadcast_to(2.0 ** ((m - 2) / 2.0) * h[l1] * hprod,
                            (nt, lcombo.shape[0])).ravel()
        keep = cols >= 0
        a_flat += np.bincount(rows[keep] * nt + cols[keep], weights=w[keep],
                              minlength=nt * nt)
    a_mat = a_flat.reshape(nt, nt)
    if kind == "derivative-D":
        a_mat *= 4.0
        norm_row = np.array(offsets, dtype=float)[:, 0] ** 2
    else:
        norm_row = np.ones(nt)
    return np.vstack([a_mat - np.eye(nt), norm_row[None, :]]), offsets


@pytest.mark.parametrize("kind,K", (
    [("derivative-D", K) for K in range(3, 13)]
    + [("gamma-3", K) for K in range(1, 8)]
    + [("gamma-4", K) for K in range(1, 5)]
))
def test_bordered_system_matches_bincount_assembly(kind, K):
    # bit for bit, so every solved table keeps its bits
    b, rhs, offsets, _ = _bordered_system(kind, K)
    ref, ref_offsets = bincount_bordered(kind, K)
    assert offsets == ref_offsets
    assert b.dtype == ref.dtype and b.shape == ref.shape
    assert b.tobytes() == ref.tobytes()
    assert rhs.tolist() == [0.0] * len(offsets) + [-2.0 if kind == "derivative-D" else 1.0]


def test_bordered_solve_peaks_near_two_systems():
    # the system is built in place: the traced peak stays within twice
    # the (nt+1) x nt bordered array (the bincount path needed ~5.3 times).
    # tracemalloc sees only Python-side buffers: lstsq's copy of the
    # system, malloc'ed inside numpy's gufunc, never showed here (1.28
    # times with it; 1.33 now, the LAPACK workspace being numpy arrays).
    # The RSS test below sees such a copy
    nt = len(_admissible_offsets(6, 4))
    tracemalloc.start()
    try:
        solve_table("gamma-4", 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * (nt + 1) * nt * 8


def test_cold_gamma4_solve_grows_peak_rss_by_under_1_6_systems():
    # LAPACK solves the bordered system where it lies: a cold K=4 gamma-4
    # table, after gamma-3 has loaded everything else, grows the peak RSS
    # by about 1.3 times its (nt+1) x nt system; lstsq's copy made that
    # 2.1 times.  A fresh process, because ru_maxrss never falls, and one
    # BLAS thread, because a second thread's buffers, first touched by
    # this solve, add about 0.15 times
    code = (
        "import resource\n"
        "from table_solver import solve_table\n"
        "solve_table('gamma-3', 4)\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "solve_table('gamma-4', 4)\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)\n"
    )
    src_dir = pathlib.Path(wavefield.__file__).resolve().parents[1]
    path = os.pathsep.join([str(src_dir), os.path.dirname(__file__)])
    env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    nt = len(_admissible_offsets(6, 4))
    grown = int(proc.stdout) * 1024  # ru_maxrss counts KiB
    assert grown < 1.6 * (nt + 1) * nt * 8


def test_order_limit_refuses_oversized_system():
    # gamma-4 at order 8 would need 12209 unknowns and a 1.19 GB system;
    # the solver refuses it before allocating
    with pytest.raises(UnsupportedOrderError) as exc:
        _bordered_system("gamma-4", 8)
    ctx = exc.value.context
    assert (ctx["kind"], ctx["order"], ctx["unknowns"]) == ("gamma-4", 8, 12209)
    assert ctx["bytes"] == 12210 * 12209 * 8 > _MAX_SYSTEM_BYTES
    # order 7, the largest gamma-4 admitted, fits
    nt = len(_admissible_offsets(12, 4))
    assert (nt + 1) * nt * 8 <= _MAX_SYSTEM_BYTES


# every scale-0 table the dense solver admits: the shipped set
SHIPPED = ([("derivative-D", K) for K in (3, 4, 5, 6, 7, 8, 9, 11)]
           + [("gamma-3", K) for K in range(1, 13)]
           + [("gamma-4", K) for K in range(1, 8)])
REFUSED = ([("derivative-D", K) for K in (10, 12)]
           + [("gamma-4", K) for K in range(8, 13)])


def test_shipped_tables_are_the_admitted_set():
    assert sorted(os.listdir(_TABLE_DIR)) == sorted(
        os.path.basename(_table_path(kind, K)) for kind, K in SHIPPED)


@pytest.mark.parametrize("kind,K", REFUSED)
def test_solver_refuses_every_unshipped_order(kind, K):
    # the orders not shipped are the ones the dense solve cannot give:
    # D at 10 and 12 fails its evenness bound, gamma-4 from 8 its size;
    # the library refuses them all alike
    if kind == "derivative-D":
        with pytest.raises(CorruptTableError, match="not even"):
            validate_tensor(solve_table(kind, K))
    else:
        with pytest.raises(UnsupportedOrderError):
            _bordered_system(kind, K)
    with pytest.raises(UnsupportedOrderError) as exc:
        derivative_overlaps(K) if kind == "derivative-D" else gamma_tensor(K, 4)
    assert exc.value.context == {"kind": kind, "order": K}


@pytest.mark.parametrize("kind,K", SHIPPED)
def test_shipped_table_is_valid_fixed_point(kind, K):
    # load_tensor validates, a gamma-4 table against its gamma-3 partner,
    # and each is a fixed point of its refinement map
    partner = None
    if kind == "gamma-4":
        partner = load_tensor(_table_path("gamma-3", K))
    t = load_tensor(_table_path(kind, K), partner)
    assert (t.kind, t.order, t.scale) == (kind, K, 0)
    assert recursion_residual(t, make_filters(K)) <= 1e-12


@pytest.mark.parametrize("kind,K", [(kind, K) for kind, K in SHIPPED if K <= 5])
def test_solver_rederives_shipped_table(kind, K):
    # the dense solve, with its degeneracy and residual checks, gives the
    # shipped table back to 1e-13, not bit for bit: dgelsd's last bits
    # move with the BLAS thread count (by up to 3.8e-15 between 1 and 2)
    want = solve_table(kind, K)
    got = load_tensor(_table_path(kind, K))
    assert list(got.entries) == list(want.entries)
    assert max(abs(got.entries[tup] - v) for tup, v in want.entries.items()) <= 1e-13


@pytest.mark.parametrize("kind,K,k,offsets", [
    ("d", 3, 0, (2,)), ("d", 4, 2, (-1,)), (3, 2, 0, (1, 1)),
    (3, 3, 1, (1, -1)), (4, 3, 0, (1, 0, -1)), (4, 2, 2, (2, 1, 0)),
])
def test_permutation_deviation_matches_loop_reference(kind, K, k, offsets):
    # D's evenness is its permutation rule; the raised deviation is the
    # dict walk's figure bit for bit
    bad = shifted(table(kind, K, k), offsets, 1e-9)
    with pytest.raises(CorruptTableError) as exc:
        validate_tensor(bad)
    assert exc.value.context["deviation"] == perm_loop(bad)


@pytest.mark.parametrize("k,kp", [(0, 0)] + [(k, kp) for k in (1, 2, 3)
                                              for kp in (0, k)])
def test_sum_rules_match_dict_sums(k, kp):
    # the fully symmetric central entry leaves the permutation rule intact,
    # so the array-form sum rules report the dict sums they replaced, at
    # every scale and against a partner at scale 0 or at the table's scale
    partner = table(3, 3, kp)
    validate_tensor(table(3, 3, k))
    validate_tensor(table(4, 3, k), partner)
    g3 = shifted(table(3, 3, k), (0, 0), 1e-9)
    with pytest.raises(CorruptTableError, match="three-point") as exc:
        validate_tensor(g3)
    assert exc.value.context == {
        "n2": 0, "total": sum(v for (a, _), v in g3.entries.items() if a == 0)}
    g4 = shifted(table(4, 3, k), (0, 0, 0), 1e-9)
    with pytest.raises(CorruptTableError, match="four-point") as exc:
        validate_tensor(g4, partner)
    ratio = 2.0 ** k / 2.0 ** (kp / 2)
    worst = max(
        abs(sum(v for tup, v in g4.entries.items() if tup[:2] == pair)
            - partner.value(pair) * ratio)
        for pair in {tup[:2] for tup in g4.entries})
    assert exc.value.context["deviation"] == worst


def test_save_refuses_invalid_table(tmp_path):
    bad = shifted(table("d", 3), (1,), 1e-9)
    with pytest.raises(CorruptTableError):
        save_tensor(bad, tmp_path / "d.tbl")
    assert list(tmp_path.iterdir()) == []


@settings(max_examples=40, deadline=None)
@given(kind_order=st.sampled_from(
    [("d", K) for K in (3, 4, 5)] + [(m, K) for m in (3, 4) for K in (2, 3, 4)]),
    k=st.integers(0, 4))
def test_save_load_round_trip_any_scale(kind_order, k):
    # whatever save_tensor accepts, load_tensor reads back unchanged
    t = table(*kind_order, k)
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "t.tbl")
        save_tensor(t, path)
        back = load_tensor(path)
    assert (back.kind, back.order, back.scale) == (t.kind, t.order, k)
    assert back.entries == t.entries


def test_validate_rejects_out_of_support():
    t = CoeffTensor("gamma-3", 2, 0, {(5, 5): 1.0})
    with pytest.raises(CorruptTableError):
        validate_tensor(t)
