"""Stage matrices, two-scale tensor splitting, and the SRG integrator."""

import tracemalloc
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wavefield.connection import (
    derivative_overlaps,
    gamma_tensor,
    rescale_tensor,
    wrap_matrix,
    wrap_tensor_dense,
)
from wavefield.errors import ShapeError, StiffnessError
from wavefield.filters import make_filters
from wavefield.flow import (
    _DOP_A,
    _DOP_B,
    _DOP_E3,
    _DOP_E5,
    FlowState,
    StepControl,
    _dop853_step,
    _wegner_rhs,
    coupling_matrix,
    split_tensors,
    srg_flow,
    stage_matrix,
)

R2 = 1.0 / np.sqrt(2.0)


def dense_wrap4(t, n):
    cube = wrap_tensor_dense(t, n)
    i = np.arange(n)
    return cube[
        (i[None, :, None, None] - i[:, None, None, None]) % n,
        (i[None, None, :, None] - i[:, None, None, None]) % n,
        (i[None, None, None, :] - i[:, None, None, None]) % n,
    ]


def split_reference(d_fine, g4_fine, fp, n):
    """Oracle for split_tensors: congruence for D, and one W row per index
    contracted against the whole periodic n^4 four-point tensor, with no
    use of the shift-by-two symmetry."""
    w = stage_matrix(fp, n).matrix
    half = n // 2
    quad = None
    if d_fine is not None:
        t = w @ wrap_matrix(d_fine, n) @ w.T
        quad = (t[:half, :half], t[:half, half:], t[half:, :half], t[half:, half:])
    full = dense_wrap4(g4_fine, n)
    rows = {"s": w[:half], "w": w[half:]}
    quartic = {
        pat: np.einsum("ai,bj,ck,dl,ijkl->abcd",
                       *(rows[p] for p in pat), full, optimize=True)
        for pat in ("ssss", "sssw", "ssww", "swww", "wwww")
    }
    return quad, quartic


def rhs_reference(h, spec, partition):
    """Oracle for the flow's right-hand side: the Wegner generator G(H)
    built as a dense matrix and [H, [H, G]] from four n x n products,
    with no use of the structure of G."""
    if spec == "wegner-diagonal":
        g = np.diag(np.diag(h))
    else:
        g = np.zeros_like(h)
        p = partition
        g[:p, :p] = h[:p, :p]
        g[p:, p:] = h[p:, p:]
    c = h @ g - g @ h
    return h @ c - c @ h


def random_symmetric(seed, n, scale=1.0):
    a = np.random.default_rng(seed).standard_normal((n, n))
    return 0.5 * scale * (a + a.T)


@lru_cache(maxsize=None)
def scaled_tables(order, k):
    d = rescale_tensor(derivative_overlaps(order), k) if order >= 3 else None
    return d, rescale_tensor(gamma_tensor(order, 4), k)


class TestStageMatrix:
    def test_haar_rows(self):
        w = stage_matrix(make_filters(1), 4).matrix
        expect = np.array([
            [R2, R2, 0, 0],
            [0, 0, R2, R2],
            [R2, -R2, 0, 0],
            [0, 0, R2, -R2],
        ])
        np.testing.assert_allclose(w, expect, atol=1e-15)

    def test_orthogonal_k2_n8(self):
        w = stage_matrix(make_filters(2), 8).matrix
        assert np.abs(w @ w.T - np.eye(8)).max() < 1e-12

    @pytest.mark.parametrize("order,n", [(1, 4), (2, 8), (3, 16), (5, 32)])
    def test_determinant_unimodular(self, order, n):
        w = stage_matrix(make_filters(order), n).matrix
        assert abs(abs(np.linalg.det(w)) - 1.0) < 1e-10

    def test_row_blocks(self):
        fp = make_filters(2)
        st = stage_matrix(fp, 8)
        assert st.coarse_rows.shape == (4, 8)
        np.testing.assert_allclose(st.matrix[0, :4], fp.h)
        np.testing.assert_allclose(st.matrix[4, :4], fp.g)

    def test_rejects_odd_and_short(self):
        fp = make_filters(2)
        with pytest.raises(ShapeError):
            stage_matrix(fp, 7)
        with pytest.raises(ShapeError):
            stage_matrix(fp, 2)


@settings(max_examples=60, deadline=None)
@given(order=st.integers(1, 6), data=st.data())
def test_stage_orthogonal_and_shift_by_two(order, data):
    # split_tensors relies on this: one stage commutes with a two-site shift
    n = data.draw(st.sampled_from(range(2 * order, 41, 2)), label="n")
    stage = stage_matrix(make_filters(order), n)
    w = stage.matrix
    assert np.abs(w @ w.T - np.eye(n)).max() < 1e-14
    for block in (stage.coarse_rows, stage.detail_rows):
        assert np.array_equal(block[1:], np.roll(block[:-1], 2, axis=1))


@pytest.fixture(scope="module")
def split_k3():
    fp = make_filters(3)
    d1 = rescale_tensor(derivative_overlaps(3), 1)
    g41 = rescale_tensor(gamma_tensor(3, 4), 1)
    return split_tensors(d1, g41, fp, 16)


class TestSplitTensors:

    def test_ss_block_is_coarse_derivative(self, split_k3):
        coarse = wrap_matrix(derivative_overlaps(3), 8)
        assert np.abs(split_k3.ss - coarse).max() < 1e-10

    def test_ssss_block_is_coarse_four_point(self, split_k3):
        coarse = dense_wrap4(gamma_tensor(3, 4), 8)
        assert np.abs(split_k3.quartic["ssss"] - coarse).max() < 1e-10

    def test_ws_is_sw_transpose(self, split_k3):
        assert np.abs(split_k3.ws - split_k3.sw.T).max() < 1e-12

    def test_frobenius_preserved(self, split_k3):
        fine = wrap_matrix(rescale_tensor(derivative_overlaps(3), 1), 16)
        whole = coupling_matrix(split_k3)
        assert abs(np.linalg.norm(whole) - np.linalg.norm(fine)) < 1e-12

    def test_block_shapes(self, split_k3):
        assert split_k3.ss.shape == (8, 8)
        assert split_k3.quartic["ssww"].shape == (8, 8, 8, 8)
        assert sorted(split_k3.quartic) == ["ssss", "sssw", "ssww", "swww", "wwww"]

    def test_haar_quartic_only(self):
        # no derivative table exists at order 1; the quartic path still runs
        fp = make_filters(1)
        g41 = rescale_tensor(gamma_tensor(1, 4), 1)
        sp = split_tensors(None, g41, fp, 8)
        assert sp.ss is None
        coarse = dense_wrap4(gamma_tensor(1, 4), 4)
        assert np.abs(sp.quartic["ssss"] - coarse).max() < 1e-14
        # Haar coarse and detail rows cancel the delta tensor pairwise
        assert np.abs(sp.quartic["sssw"]).max() < 1e-15
        with pytest.raises(ShapeError):
            coupling_matrix(sp)

    def test_mismatches_rejected(self):
        fp3, fp2 = make_filters(3), make_filters(2)
        d1 = rescale_tensor(derivative_overlaps(3), 1)
        g41 = rescale_tensor(gamma_tensor(3, 4), 1)
        with pytest.raises(ShapeError):
            split_tensors(d1, g41, fp2, 16)
        with pytest.raises(ShapeError):
            split_tensors(d1, rescale_tensor(gamma_tensor(3, 4), 2), fp3, 16)
        with pytest.raises(ShapeError):
            split_tensors(d1, g41, fp3, 15)


@settings(max_examples=40, deadline=None)
@given(order=st.integers(1, 4), k=st.integers(0, 1), with_d=st.booleans(),
       data=st.data())
def test_split_matches_full_tensor_reference(order, k, with_d, data):
    n = data.draw(st.sampled_from(range(2 * order, 25, 2)), label="n")
    fp = make_filters(order)
    d, g4 = scaled_tables(order, k)
    if not with_d:
        d = None
    sp = split_tensors(d, g4, fp, n)
    quad, quartic = split_reference(d, g4, fp, n)
    if d is None:
        assert sp.ss is None and sp.ww is None
    else:
        for got, ref in zip((sp.ss, sp.sw, sp.ws, sp.ww), quad):
            assert np.array_equal(got, ref)
    assert sorted(sp.quartic) == sorted(quartic)
    for pat, ref in quartic.items():
        bound = 1e-14 * max(1.0, np.abs(ref).max())
        assert np.abs(sp.quartic[pat] - ref).max() <= bound, pat


def test_split_memory_stays_near_its_output():
    # no n^4 array: the transient peak stays within a quarter of the blocks
    fp = make_filters(3)
    d, g4 = scaled_tables(3, 1)
    tracemalloc.start()
    try:
        sp = split_tensors(d, g4, fp, 64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out = sum(b.nbytes for b in (sp.ss, sp.sw, sp.ws, sp.ww))
    out += sum(b.nbytes for b in sp.quartic.values())
    assert peak <= 1.25 * out, (peak, out)


class TestFlowState:
    def test_validation(self):
        good = np.eye(3)
        with pytest.raises(ShapeError):
            FlowState(0.0, np.ones((2, 3)))
        with pytest.raises(ShapeError):
            FlowState(0.0, np.array([[0.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(ShapeError):
            FlowState(-1.0, good)
        with pytest.raises(ShapeError):
            FlowState(0.0, good, "jacobi")
        with pytest.raises(ShapeError):
            FlowState(0.0, good, "wegner-block", None)
        with pytest.raises(ShapeError):
            FlowState(0.0, np.eye(1024))
        with pytest.raises(ShapeError, match="empty"):
            FlowState(0.0, np.zeros((0, 0)))
        # an inf diagonal passes the symmetry check, which compares nan
        with pytest.raises(ShapeError, match="finite"):
            FlowState(0.0, np.diag([np.inf, 1.0]))

    def test_input_copied(self):
        h = np.eye(2)
        st = FlowState(0.0, h)
        h[0, 0] = 7.0
        assert st.h_matrix[0, 0] == 1.0


class TestSrgFlow:
    def test_diagonal_fixed_point_exact(self):
        h0 = np.diag([3.0, -1.0, 0.25, 7.5])
        fin, traj, rep = srg_flow(FlowState(0.0, h0), 2.0)
        assert np.array_equal(fin.h_matrix, h0)
        assert fin.lam == 2.0
        assert traj[-1][1] == 0.0
        assert not rep["sign_convention_flipped"]

    def test_two_by_two_diagonalizes(self):
        eps = 0.1
        h0 = np.array([[1.0, eps], [eps, -1.0]])
        fin, traj, rep = srg_flow(FlowState(0.0, h0, "wegner-diagonal"), 10.0)
        assert abs(fin.h_matrix[0, 1]) < 1e-8
        root = np.sqrt(1.0 + eps**2)
        got = np.sort(np.linalg.eigvalsh(fin.h_matrix))
        np.testing.assert_allclose(got, [-root, root], atol=1e-9)
        assert rep["monotonicity_breaks"] == 0

    @pytest.mark.parametrize("genspec,part", [("wegner-diagonal", None),
                                              ("wegner-block", 6)])
    def test_random_isospectral(self, genspec, part):
        rng = np.random.default_rng(202)
        a = rng.standard_normal((16, 16))
        h0 = 0.5 * (a + a.T)
        fin, traj, rep = srg_flow(FlowState(0.0, h0, genspec, part), 1.0)
        e0 = np.sort(np.linalg.eigvalsh(h0))
        e1 = np.sort(np.linalg.eigvalsh(fin.h_matrix))
        scale = max(1.0, np.abs(e0).max())
        assert np.abs(e1 - e0).max() / scale < 1e-8
        assert abs(np.trace(fin.h_matrix) - np.trace(h0)) < 1e-10 * scale * 16
        assert abs(np.linalg.norm(fin.h_matrix) - np.linalg.norm(h0)) < 1e-10 * scale * 16
        assert not rep["sign_convention_flipped"]
        # trajectory rows are (lambda, off norm, drift) and lambda is increasing
        lams = [row[0] for row in traj]
        assert lams == sorted(lams) and lams[-1] == 1.0

    def test_wegner_offdiagonal_monotone(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((12, 12))
        h0 = 0.5 * (a + a.T)
        fin, traj, rep = srg_flow(FlowState(0.0, h0), 0.5)
        offs = [row[1] for row in traj]
        assert rep["monotonicity_breaks"] == 0
        assert all(b <= a + 1e-12 for a, b in zip(offs, offs[1:]))

    def test_zero_span_returns_input(self):
        h0 = np.array([[1.0, 0.5], [0.5, 2.0]])
        fin, traj, rep = srg_flow(FlowState(1.0, h0), 1.0)
        assert np.array_equal(fin.h_matrix, h0)
        assert len(traj) == 1 and rep["accepted"] == 0

    def test_backward_rejected(self):
        with pytest.raises(ShapeError):
            srg_flow(FlowState(1.0, np.eye(2)), 0.5)

    def test_stiffness_carries_partial_trajectory(self):
        # an unreachable tolerance forces rejections until the step floor
        h0 = np.array([[1.0, 0.3], [0.3, -1.0]])
        ctl = StepControl(tol=1e-300, initial_step=1e-3, min_step=1e-4)
        with pytest.raises(StiffnessError) as exc:
            srg_flow(FlowState(0.0, h0), 1.0, ctl)
        assert isinstance(exc.value.trajectory, list)
        assert len(exc.value.trajectory) >= 1
        assert exc.value.state.lam < 1.0

    def test_step_budget_exhaustion(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((8, 8))
        h0 = 0.5 * (a + a.T)
        with pytest.raises(StiffnessError):
            srg_flow(FlowState(0.0, h0), 50.0, StepControl(max_steps=3))


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 40), seed=st.integers(0, 2**32 - 1),
       scale=st.sampled_from((1e-3, 1.0, 3.0)))
def test_structured_rhs_matches_four_product_reference(n, seed, scale):
    h = random_symmetric(seed, n, scale)
    bound = 1e-13 * max(1.0, np.linalg.norm(h)) ** 2
    cases = [("wegner-diagonal", None)]
    cases += [("wegner-block", p) for p in range(1, n)]
    for spec, part in cases:
        got = _wegner_rhs(h, spec, part)
        assert np.abs(got - rhs_reference(h, spec, part)).max() <= bound, part
        assert np.array_equal(got, got.T), part


def bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64)


def test_dop853_tableau_matches_scipy_bit_for_bit():
    # the literals stand in for an import of scipy.integrate, which the
    # flow avoids for its import cost
    ref = pytest.importorskip("scipy.integrate").DOP853
    stages = len(_DOP_B)
    assert stages == ref.n_stages == 12
    assert ref.A.shape == (stages, stages)
    for i, row in enumerate(_DOP_A, start=1):
        assert len(row) == i
        assert np.array_equal(bits(row), bits(ref.A[i, :i])), i
    assert np.array_equal(bits(_DOP_B), bits(ref.B))
    for mine, theirs in ((_DOP_E3, ref.E3), (_DOP_E5, ref.E5)):
        # the thirteenth weight, on the derivative at the new point, is zero
        assert theirs.shape == (stages + 1,) and theirs[stages] == 0.0
        assert np.array_equal(bits(mine), bits(theirs[:stages]))


def rk4_reference(h, dt, substeps, rhs):
    """Classical Runge-Kutta over dt in many substeps: a reference that
    shares nothing with the Dormand-Prince tableau."""
    tau = dt / substeps
    for _ in range(substeps):
        k1 = rhs(h)
        k2 = rhs(h + 0.5 * tau * k1)
        k3 = rhs(h + 0.5 * tau * k2)
        k4 = rhs(h + tau * k3)
        h = h + (tau / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return h


@pytest.mark.parametrize("genspec,part", [("wegner-diagonal", None),
                                          ("wegner-block", 3)])
def test_dop853_step_is_eighth_order(genspec, part):
    # the local error of an order-8 step is O(dt^9): halving dt must cut
    # it by at least 2^8; a wrong weight leaves a low-order term that
    # halving dt cuts by 2 or 4
    h = random_symmetric(4, 6)

    def rhs(m):
        return _wegner_rhs(m, genspec, part)

    errors = []
    for dt in (0.05, 0.025):
        y, _ = _dop853_step(h, rhs(h), dt, rhs)
        errors.append(np.abs(y - rk4_reference(h, dt, 200, rhs)).max())
    assert errors[1] > 1e-13  # well above the reference's roundoff
    assert errors[0] >= 2.0**8 * errors[1], errors


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 10), seed=st.integers(0, 2**32 - 1),
       lam=st.floats(0.01, 0.3), block=st.booleans(), data=st.data())
def test_flow_conserves_spectrum_trace_and_norm(n, seed, lam, block, data):
    h0 = random_symmetric(seed, n)
    if block:
        spec, part = "wegner-block", data.draw(st.integers(1, n - 1), label="partition")
    else:
        spec, part = "wegner-diagonal", None
    # about 150x the most attempts these flows need (67 over 300 draws):
    # an error estimate of badly wrong order shrinks the steps until the
    # budget runs out
    ctl = StepControl(max_steps=10000)
    h1 = srg_flow(FlowState(0.0, h0, spec, part), lam, ctl)[0].h_matrix
    bound = 1e-12 * max(1.0, np.linalg.norm(h0))
    assert np.abs(np.linalg.eigvalsh(h1) - np.linalg.eigvalsh(h0)).max() <= bound
    assert abs(np.trace(h1) - np.trace(h0)) <= bound
    assert abs(np.linalg.norm(h1) - np.linalg.norm(h0)) <= bound


@pytest.mark.parametrize("seed,genspec,part", [(202, "wegner-diagonal", None),
                                               (202, "wegner-block", 6),
                                               (7, "wegner-diagonal", None)])
def test_flow_converged_at_default_tol(seed, genspec, part):
    # tightening tol may move the answer by roundoff only: a generator
    # held fixed inside each step would leave an O(1e-3) error here
    state = FlowState(0.0, random_symmetric(seed, 16), genspec, part)
    loose = srg_flow(state, 1.0)[0].h_matrix
    tight = srg_flow(state, 1.0, StepControl(tol=1e-15))[0].h_matrix
    assert np.abs(loose - tight).max() < 1e-10


class TestTwoScaleDecoupling:
    def test_block_flow_kills_cross_coupling(self):
        fp = make_filters(3)
        d1 = rescale_tensor(derivative_overlaps(3), 1)
        g41 = rescale_tensor(gamma_tensor(3, 4), 1)
        sp = split_tensors(d1, g41, fp, 16)
        h0 = coupling_matrix(sp) + np.eye(16)
        start = np.linalg.norm(h0[:8, 8:])
        assert start > 1.0  # scales genuinely coupled at the outset
        fin, traj, rep = srg_flow(FlowState(0.0, h0, "wegner-block", 8), 0.05)
        assert np.linalg.norm(fin.h_matrix[:8, 8:]) < 1e-6
        assert traj[-1][2] < 1e-8
        # decoupled block spectra jointly reproduce the full spectrum
        joint = np.sort(np.concatenate([
            np.linalg.eigvalsh(fin.h_matrix[:8, :8]),
            np.linalg.eigvalsh(fin.h_matrix[8:, 8:]),
        ]))
        full = np.sort(np.linalg.eigvalsh(h0))
        assert np.abs(joint - full).max() < 1e-6
