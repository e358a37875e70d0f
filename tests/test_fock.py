import tracemalloc
from functools import lru_cache
from itertools import permutations
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings, strategies as st

from wavefield import fock
from wavefield.connection import (
    derivative_overlaps,
    gamma_tensor,
    rescale_tensor,
    wrap_matrix,
    wrap_tensor_dense,
)
from wavefield.errors import (
    ConvergenceFailureError,
    IndexRangeError,
    OrderMismatchError,
    ScaleMismatchError,
    ShapeError,
    TachyonicConfigurationError,
)
from wavefield.fock import (
    FockBasis,
    FockOperator,
    ModelParams,
    block_leakage_counts,
    build_phi4_hamiltonian,
    free_reference_spectrum,
    lanczos_lowest,
)
from wavefield.fock import (
    _Half,
    _expand,
    _half_product,
    _largest_row_sum,
    _quadratic_terms,
    _quartic_terms,
    _symmetric_csr,
)

D3 = derivative_overlaps(3)
G43 = gamma_tensor(3, 4)


def dense(op):
    return op.matrix.toarray()


def half_of(mat):
    """The half form of a symmetric scipy matrix: its diagonal, signed
    zeros read as +0.0, and its strict upper triangle."""
    upper = sp.triu(mat, k=1, format="csr")
    upper.sort_indices()
    return _Half(mat.diagonal() + 0.0, upper.data, upper.indices, upper.indptr)


def operator_of(mat):
    """The FockOperator of a symmetric scipy matrix on one mode."""
    return FockOperator(FockBasis(1, mat.shape[0] - 1), half_of(mat))


def full_csr(half):
    """The full scipy CSR matrix of a half form, from its expansion."""
    dim = len(half.diagonal)
    return sp.csr_matrix(_expand(half), shape=(dim, dim))


def quartic_reference(t_dense, coupling, gamma, modes, terms):
    """Dict-loop fold of lambda sum Gamma :Phi Phi Phi Phi:, the reference
    for the array form in _quartic_terms."""
    inv2 = coupling / (2.0 * gamma) ** 2
    splits = [
        tuple((1 << b) & s != 0 for b in range(4)) for s in range(16)
    ]
    nz = np.argwhere(t_dense != 0.0)
    for n in range(modes):
        for o2, o3, o4 in nz:
            tup = (n, (n + o2) % modes, (n + o3) % modes, (n + o4) % modes)
            w = t_dense[o2, o3, o4] * inv2
            for pick in splits:
                cr = tuple(sorted(tup[i] for i in range(4) if pick[i]))
                an = tuple(sorted(tup[i] for i in range(4) if not pick[i]))
                key = (cr, an)
                terms[key] = terms.get(key, 0.0) + w
    return terms


def apply_reference(basis, creators, annihilators):
    """All-states masked ladder action, the reference for _apply_term."""
    occ = basis.occupations()
    dim = occ.shape[0]
    amp = np.ones(dim)
    work = occ.astype(np.int64).copy()
    for j in annihilators:
        amp = amp * np.sqrt(np.maximum(work[:, j], 0))
        work[:, j] -= 1
    for j in creators:
        work[:, j] += 1
        amp = amp * np.sqrt(np.maximum(work[:, j], 0))
    valid = amp != 0.0
    for j in set(creators):
        valid &= work[:, j] <= basis.cutoff
    strides = basis.strides
    shift = int(sum(strides[j] for j in creators) - sum(strides[j] for j in annihilators))
    src = np.nonzero(valid)[0]
    return src, src + shift, amp[valid]


def model_terms(p, d_tensor, g4_tensor, modes):
    terms = _quadratic_terms(wrap_matrix(d_tensor, modes), p.mass_squared,
                             p.gamma, modes)
    if p.coupling != 0.0:
        terms = quartic_reference(wrap_tensor_dense(g4_tensor, modes),
                                  p.coupling, p.gamma, modes, terms)
    return terms


def assemble_reference(p, d_tensor, g4_tensor, basis):
    """Two-list triplet assembly, the reference for build_phi4_hamiltonian:
    diagonal-shift and off-diagonal terms are summed by separate stable
    sorts, then the off-diagonal sums are mirrored."""

    def dedup(rows, cols, vals):
        if len(rows) == 0:
            return rows, cols, vals
        order = np.lexsort((cols, rows))
        rows, cols, vals = rows[order], cols[order], vals[order]
        keys = rows * basis.dimension + cols
        starts = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
        return rows[starts], cols[starts], np.add.reduceat(vals, starts)

    terms = model_terms(p, d_tensor, g4_tensor, basis.modes)
    diag, off = ([], [], []), ([], [], [])
    for key, coeff in terms.items():
        conj = (key[1], key[0])
        if key > conj:
            continue
        if coeff == 0.0 and terms.get(conj, 0.0) == 0.0:
            continue
        src, tgt, amp = apply_reference(basis, key[0], key[1])
        if len(src) == 0:
            continue
        for part, x in zip(diag if key == conj else off, (tgt, src, coeff * amp)):
            part.append(x)

    def cat(parts):
        return np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)

    rd, cd, vd = dedup(*map(cat, diag))
    ro, co, vo = dedup(*map(cat, off))
    dim = basis.dimension
    return sp.coo_matrix(
        (np.concatenate([vd, vo, vo]),
         (np.concatenate([rd, ro, co]), np.concatenate([cd, co, ro]))),
        shape=(dim, dim),
    ).tocsr()


@lru_cache(maxsize=None)
def scaled_tables(K, k):
    return (rescale_tensor(derivative_overlaps(K), k),
            rescale_tensor(gamma_tensor(K, 4), k))


def test_basis_enumeration_mode0_fastest():
    b = FockBasis(2, 2)
    occ = b.occupations()
    assert occ.shape == (9, 2)
    np.testing.assert_array_equal(occ[1], [1, 0])
    np.testing.assert_array_equal(occ[3], [0, 1])
    for i in range(9):
        assert b.index_of(occ[i]) == i


def test_oversized_basis_refused_before_allocation():
    # 4^40 states would take 9.7e24 bytes as the int64 state grid; the
    # basis is refused at construction, which allocates nothing
    with pytest.raises(ShapeError) as exc:
        FockBasis(40, 3)
    assert exc.value.context == {"modes": 40, "cutoff": 3,
                                 "dimension": 4**40, "bytes": 8 * 4**40}
    # the grid at exactly the bound is allowed, one state more is not
    assert 8 * FockBasis(26, 1).dimension == fock._MAX_SYSTEM_BYTES
    with pytest.raises(ShapeError):
        FockBasis(27, 1)


def test_annihilate_minimal():
    b = FockBasis(1, 1)
    a = mode_operator(b, 0, "annihilate").toarray()
    np.testing.assert_array_equal(a, [[0, 1], [0, 0]])


def test_commutator_truncation_artifact():
    b = FockBasis(1, 5)
    a = mode_operator(b, 0, "annihilate").toarray()
    comm = a @ a.T - a.T @ a
    # the product of two ladder matrices is exactly diagonal; the values
    # carry sqrt(n)^2 rounding, so the deficit location is exact and the
    # magnitudes are float-precision
    assert np.count_nonzero(comm - np.diag(np.diag(comm))) == 0
    expect = np.ones(6)
    expect[5] = -5.0  # the top state carries the whole deficit
    assert np.abs(np.diag(comm) - expect).max() < 1e-13


def test_phi_assembly_gamma2():
    b = FockBasis(1, 3)
    phi = mode_operator(b, 0, "phi", gamma=2.0).toarray()
    a = mode_operator(b, 0, "annihilate").toarray()
    np.testing.assert_allclose(phi, (a + a.T) / 2.0, atol=0)


def test_pi_times_i_antisymmetric():
    b = FockBasis(1, 4)
    pii = mode_operator(b, 0, "pi_times_i", gamma=3.0).toarray()
    np.testing.assert_array_equal(pii, -pii.T)


def test_mode_out_of_range():
    with pytest.raises(IndexRangeError):
        mode_operator(FockBasis(2, 2), 2, "phi")


def test_one_mode_free_is_number_operator():
    b = FockBasis(1, 8)
    h = build_phi4_hamiltonian(ModelParams(1.0, 0.0, 1.0), D3, None, b)
    np.testing.assert_allclose(dense(h), np.diag(np.arange(9.0)), atol=1e-12)
    evs = lanczos_lowest(h, 4)
    for j, (e, r) in enumerate(evs):
        assert abs(e - j) < 1e-10


def test_vacuum_expectation_is_structurally_zero():
    rng = np.random.default_rng(11)
    b = FockBasis(2, 4)
    for _ in range(5):
        p = ModelParams(
            float(rng.uniform(-1, 4)),
            float(rng.uniform(0, 2)),
            float(rng.uniform(0.3, 3)),
        )
        h = build_phi4_hamiltonian(p, D3, G43, b)
        assert h.matrix[0, 0] == 0.0


def test_assembled_matrix_exactly_symmetric():
    b = FockBasis(3, 3)
    h = build_phi4_hamiltonian(ModelParams(0.7, 0.35, 1.4), D3, G43, b)
    assert (h.matrix - h.matrix.T).nnz == 0


def test_two_mode_free_spectrum_matched_gamma():
    om, _ = free_reference_spectrum(ModelParams(1.0, 0.0, 1.0), D3, 2)
    g = float(np.sqrt(om[0] * om[1]))
    p = ModelParams(1.0, 0.0, g)
    b = FockBasis(2, 20)
    h = build_phi4_hamiltonian(p, D3, None, b)
    om2, e0 = free_reference_spectrum(p, D3, 2)
    evs = np.linalg.eigvalsh(dense(h))
    ladder = sorted(e0 + i * om2[0] + j * om2[1] for i in range(6) for j in range(6))
    assert np.abs(evs[:6] - np.array(ladder[:6])).max() < 1e-10


def test_two_mode_free_spectrum_gamma_one_truncation_gap():
    # at gamma = 1 the quadratic Hamiltonian has a+a+ terms, so the
    # n_max = 20 cutoff leaves a measurable error (~1.7e-6 on the second
    # level); this documents the truncated magnitude
    p = ModelParams(1.0, 0.0, 1.0)
    h = build_phi4_hamiltonian(p, D3, None, FockBasis(2, 20))
    om, e0 = free_reference_spectrum(p, D3, 2)
    evs = np.linalg.eigvalsh(dense(h))
    ladder = sorted(e0 + i * om[0] + j * om[1] for i in range(6) for j in range(6))
    errs = np.abs(evs[:4] - np.array(ladder[:4]))
    assert errs.max() < 5e-5
    assert errs[0] < 1e-6  # ground state converges fastest


def test_quartic_one_mode_matches_ladder_expansion():
    from math import comb

    lam, mu2, gam = 0.7, 1.3, 1.9
    b = FockBasis(1, 10)
    h = dense(build_phi4_hamiltonian(ModelParams(mu2, lam, gam), D3, G43, b))
    a = mode_operator(b, 0, "annihilate").toarray()
    ad = a.T
    inv = 1.0 / (2.0 * gam)
    phi2 = inv * (ad @ ad + 2 * ad @ a + a @ a)
    phi4 = inv**2 * sum(
        comb(4, j)
        * np.linalg.matrix_power(ad, j)
        @ np.linalg.matrix_power(a, 4 - j)
        for j in range(5)
    )
    pi2 = gam / 2.0 * (2 * ad @ a - ad @ ad - a @ a)
    # wrapped derivative matrix on one mode sums the whole table: zero
    ref = 0.5 * pi2 + 0.5 * mu2 * phi2 + lam * phi4
    assert np.abs(h - ref).max() < 1e-12


def sinc_grid(half_width, points):
    """A uniform grid on [-half_width, half_width] and the sinc-DVR matrix
    of 1/2 p^2 on it, in the closed form of Colbert and Miller, J. Chem.
    Phys. 96 (1992) 1982; no ladder operator enters."""
    x, dx = np.linspace(-half_width, half_width, points, retstep=True)
    k = np.subtract.outer(np.arange(points), np.arange(points))
    with np.errstate(divide="ignore"):
        kinetic = np.where(k == 0, np.pi**2 / 6.0, (-1.0) ** k / k.astype(float) ** 2)
    return x, kinetic / dx**2


def sinc_dvr_levels(potential, count, half_width=8.0, points=401):
    """Lowest levels of 1/2 p^2 + potential(x) by the sinc DVR, the
    potential on the diagonal."""
    x, kinetic = sinc_grid(half_width, points)
    return np.linalg.eigvalsh(kinetic + np.diag(potential(x)))[:count]


def test_sinc_dvr_reproduces_hioe_montroll_ground_state():
    # p^2 + x^2 + x^4 = 2 (1/2 p^2 + 1/2 x^2 + 1/2 x^4); Hioe and Montroll,
    # J. Math. Phys. 16 (1975) 1945
    e0 = 2.0 * sinc_dvr_levels(lambda x: 0.5 * x**2 + 0.5 * x**4, 1)[0]
    assert abs(e0 - 1.392351641530) < 1e-11


@pytest.mark.parametrize("mass2, lam, gamma", [(1.0, 0.1, 1.0), (1.0, 1.0, 1.0),
                                               (0.5, 0.3, 1.3)])
def test_one_mode_spectrum_matches_sinc_dvr(mass2, lam, gamma):
    # on one mode the wrapped D sums to zero and the wrapped Gamma4 to one,
    # so H is the quartic oscillator with the normal ordering (c = <Phi^2>
    # = 1/(2 gamma)) moved into the mass and the constant:
    # 1/2 p^2 + 1/2 (mu^2 - 12 lambda c) x^2 + lambda x^4
    #     - gamma/4 - 1/2 mu^2 c + 3 lambda c^2
    c = 1.0 / (2.0 * gamma)
    shift = -gamma / 4.0 - 0.5 * mass2 * c + 3.0 * lam * c**2
    ref = shift + sinc_dvr_levels(
        lambda x: 0.5 * (mass2 - 12.0 * lam * c) * x**2 + lam * x**4, 4)
    basis = FockBasis(1, 80)
    assert basis.dimension <= 128  # dense path, from the half form
    h = build_phi4_hamiltonian(ModelParams(mass2, lam, gamma), D3, G43, basis)
    got = np.array([e for e, _ in lanczos_lowest(h, 4)])
    assert np.abs(got - ref).max() < 1e-9


def two_mode_dvr_levels(p, count):
    """Lowest levels of the two-mode Hamiltonian with its normal ordering
    undone, c = <Phi^2> = 1/(2 gamma):

        1/2 p.p + 1/2 x.A x + lambda sum F_abcd x_a x_b x_c x_d + const,

    F the wrapped Gamma4 table at sites (n, n+o2, n+o3, n+o4) made
    symmetric, A = W + mu^2 I - 12 lambda c S with S_kl = sum_i F_iikl
    (the quadratic shift -6 lambda c sum_kl S_kl x_k x_l) and const =
    -2 gamma/4 - 1/2 c tr(W + mu^2 I) + 3 lambda c^2 sum_ij F_iijj.  The
    wrapped D on two sites is [[w, -w], [-w, w]], so the sinc DVR runs
    along the normal coordinates u = (x0 + x1)/sqrt2, of frequency mu, and
    v = (x0 - x1)/sqrt2, near 3.9 at K=3, each grid sized to it."""
    w_mat = wrap_matrix(D3, 2)
    w_mat = 0.5 * (w_mat + w_mat.T)
    wrapped = wrap_tensor_dense(G43, 2)
    f = np.zeros((2,) * 4)
    for n in range(2):
        for o2, o3, o4 in np.ndindex(wrapped.shape):
            f[n, (n + o2) % 2, (n + o3) % 2, (n + o4) % 2] += wrapped[o2, o3, o4]
    f = sum(f.transpose(perm) for perm in permutations(range(4))) / 24.0
    c, lam = 1.0 / (2.0 * p.gamma), p.coupling
    mass = w_mat + p.mass_squared * np.eye(2)
    a = mass - 12.0 * lam * c * np.einsum("iikl->kl", f)
    const = -p.gamma / 2.0 - 0.5 * c * np.trace(mass) + 3.0 * lam * c**2 * np.einsum("iijj->", f)
    u, t_u = sinc_grid(6.0, 41)
    v, t_v = sinc_grid(2.5, 21)
    u, v = np.meshgrid(u, v, indexing="ij")
    x = np.stack([u + v, u - v]) / np.sqrt(2.0)
    potential = (0.5 * np.einsum("kl,k...,l...->...", a, x, x)
                 + lam * np.einsum("abcd,a...,b...,c...,d...->...", f, x, x, x, x))
    h = (np.kron(t_u, np.eye(len(t_v))) + np.kron(np.eye(len(t_u)), t_v)
         + np.diag(potential.ravel()))
    return const + np.linalg.eigvalsh(h)[:count]


@pytest.mark.parametrize("mass2, lam, gamma", [(1.0, 0.1, 1.0), (0.5, 0.3, 1.3),
                                               (1.0, 1.0, 2.0)])
def test_two_mode_spectrum_matches_sinc_dvr(mass2, lam, gamma):
    # checks the D coupling, Gamma4's off-diagonal entries and the aliasing
    # of offsets at N = 2 < 2K; the DVR grid is within about 2e-11 of one
    # with twice the points, and nmax 38 within about 2e-10 of the DVR
    p = ModelParams(mass2, lam, gamma)
    ref = two_mode_dvr_levels(p, 4)
    h = build_phi4_hamiltonian(p, D3, G43, FockBasis(2, 38))
    got = np.array([e for e, _ in lanczos_lowest(h, 4)])
    assert np.abs(got - ref).max() < 1e-8


def test_free_reference_closed_forms():
    om, e0 = free_reference_spectrum(ModelParams(1.0, 0.0, 1.0), D3, 1)
    assert abs(om[0] - 1.0) < 1e-9 and abs(e0) < 1e-9
    om, e0 = free_reference_spectrum(ModelParams(4.0, 0.0, 1.0), D3, 1)
    assert abs(om[0] - 2.0) < 1e-9 and abs(e0 + 0.25) < 1e-9


def test_free_reference_two_mode_circulant():
    om, _ = free_reference_spectrum(ModelParams(1.0, 0.0, 1.0), D3, 2)
    assert abs(om[0] - 1.0) < 1e-9
    assert abs(om[1] - np.sqrt(1.0 + 14.01904762)) < 1e-6


def test_tachyonic_rejected():
    with pytest.raises(TachyonicConfigurationError):
        free_reference_spectrum(ModelParams(-1.0, 0.0, 1.0), D3, 1)


def test_tensor_guards():
    # the lattice resolution is the tables' own; at nonzero coupling the D
    # and Gamma4 tables must agree on it
    b = FockBasis(2, 2)
    p = ModelParams(1.0, 0.5, 1.0)
    d1, g1 = scaled_tables(3, 1)
    d4, _ = scaled_tables(4, 1)
    build_phi4_hamiltonian(p, d1, g1, b)
    with pytest.raises(ScaleMismatchError) as exc:
        build_phi4_hamiltonian(p, d1, G43, b)
    assert exc.value.context == {"derivative": 1, "gamma4": 0}
    with pytest.raises(OrderMismatchError) as exc:
        build_phi4_hamiltonian(p, d4, g1, b)
    assert exc.value.context == {"derivative": 4, "gamma4": 3}
    # at zero coupling the four-point table is not read
    free = ModelParams(1.0, 0.0, 1.0)
    assert (build_phi4_hamiltonian(free, d4, g1, b).matrix
            != build_phi4_hamiltonian(free, d4, None, b).matrix).nnz == 0
    with pytest.raises(ShapeError):
        build_phi4_hamiltonian(p, d1, None, b)  # interacting but no table
    with pytest.raises(ShapeError):
        build_phi4_hamiltonian(p, g1, g1, b)  # wrong kinds
    with pytest.raises(ShapeError):
        build_phi4_hamiltonian(p, d1, d1, b)
    with pytest.raises(ShapeError):
        free_reference_spectrum(free, g1, 2)


def test_params_default_gamma():
    p = ModelParams(4.0, 0.0)
    assert p.gamma == 2.0
    with pytest.raises(ShapeError):
        ModelParams(-1.0, 0.0)
    with pytest.raises(ShapeError):
        ModelParams(1.0, 0.0, -2.0)


def test_lanczos_diagonal_and_closed_form():
    diag = operator_of(sp.csr_matrix(np.diag(np.arange(10.0))))
    out = lanczos_lowest(diag, 3)
    assert [round(e, 12) for e, _ in out] == [0.0, 1.0, 2.0]
    eps = 0.1
    two = operator_of(sp.csr_matrix(np.array([[0.0, eps], [eps, 0.0]])))
    out = lanczos_lowest(two, 2)
    assert abs(out[0][0] + eps) < 1e-14 and abs(out[1][0] - eps) < 1e-14


def test_operator_matrix_and_entries_expand_its_half_form():
    # rows 1 and 3 hold no diagonal entry, row 3 no entry at all
    m = sp.csr_matrix(np.array([[1.0, 2.0, 0.0, 0.0],
                                [2.0, 0.0, -3.0, 0.0],
                                [0.0, -3.0, 0.5, 0.0],
                                [0.0, 0.0, 0.0, 0.0]]))
    op = operator_of(m)
    assert op.half.diagonal.tolist() == [1.0, 0.0, 0.5, 0.0]
    assert op.half.data.tolist() == [2.0, -3.0]
    assert_csr_bitwise(op.matrix, m)
    rows, cols, vals = op.entries()
    assert rows.tolist() == [0, 0, 1, 1, 2, 2]
    assert cols.tolist() == [0, 1, 0, 2, 1, 2]
    assert vals.tolist() == [1.0, 2.0, 2.0, -3.0, -3.0, 0.5]


def test_lanczos_sparse_path_deterministic():
    b = FockBasis(4, 3)
    h = build_phi4_hamiltonian(ModelParams(1.0, 0.1, 1.0), D3, G43, b)
    assert b.dimension > 128  # iterative path
    a = lanczos_lowest(h, 3, tol=1e-9)
    b_run = lanczos_lowest(h, 3, tol=1e-9)
    assert a == b_run
    ref = np.linalg.eigvalsh(dense(h))[:3]
    assert np.abs(np.array([e for e, _ in a]) - ref).max() < 1e-8


def test_lanczos_unreachable_tolerance():
    h = build_phi4_hamiltonian(ModelParams(1.0, 0.2, 1.0), D3, G43, FockBasis(1, 6))
    with pytest.raises(ConvergenceFailureError):
        lanczos_lowest(h, 2, tol=1e-30)


def test_lanczos_arpack_no_convergence(monkeypatch):
    import scipy.sparse.linalg as spla

    def stalled(*args, **kwargs):
        raise spla.ArpackNoConvergence("stalled", np.array([0.5]), np.zeros((200, 1)))

    monkeypatch.setattr(spla, "eigsh", stalled)
    op = operator_of(sp.csr_matrix(np.diag(np.arange(200.0))))
    assert op.basis.dimension > 128  # iterative path
    with pytest.raises(ConvergenceFailureError) as exc:
        lanczos_lowest(op, 3)
    assert exc.value.context == {"eigenvalues": [0.5], "count": 3}


def test_lanczos_bound_is_largest_absolute_row_sum():
    # rows 1 and 3 are empty; the bound scales scipy's sequential row sums
    # of |H|, the csr_matvec sums of abs(H) @ 1 (here on the dense path)
    r = -np.sqrt(2.0)
    m = sp.csr_matrix(np.array([[0.5, 0.0, r, 0.0],
                                [0.0, 0.0, 0.0, 0.0],
                                [r, 0.0, 1.0 / 3.0, 0.0],
                                [0.0, 0.0, 0.0, 0.0]]))
    with pytest.raises(ConvergenceFailureError) as exc:
        lanczos_lowest(operator_of(m), 2, tol=1e-30)
    assert bits(exc.value.context["bound"]) == bits(1e-30 * largest_row_sum(m))


def largest_row_sum(m):
    """The largest of scipy's sequential row sums of |m|."""
    return float((abs(m) @ np.ones(m.shape[0])).max())


def symmetric_with_empty_rows(dim, empty, seed, band=None):
    """Symmetric matrix of wide-ranging values, nonzero within band of the
    diagonal (everywhere when band is None), with the rows and columns in
    empty zeroed."""
    rng = np.random.default_rng(seed)
    a = np.triu(rng.standard_normal((dim, dim)) * 10.0 ** rng.uniform(-6, 6, (dim, dim)), 1)
    if band is not None:
        a = np.tril(a, band)
    a += a.T + np.diag(rng.standard_normal(dim))
    a[empty, :] = a[:, empty] = 0.0
    return sp.csr_matrix(a)


@pytest.mark.parametrize("chunk", [1, 2, 3])
@pytest.mark.parametrize("empty", [[0, 3, 4, 8], [1, 2, 5], [6, 7, 8]])
def test_lanczos_bound_chunks_keep_row_sums_whole(chunk, empty):
    # upper rows of 0-3 entries and chunks of 1-3 entries: chunks end
    # before, after and between empty rows, and a row longer than the
    # chunk is still summed whole
    for seed in range(4):
        m = symmetric_with_empty_rows(9, empty, seed, band=3)
        with mock.patch.object(fock, "_BOUND_CHUNK", chunk):
            assert bits(_largest_row_sum(half_of(m))) == bits(largest_row_sum(m))


@settings(max_examples=100, deadline=None)
@given(dim=st.integers(2, 40), seed=st.integers(0, 2**32 - 1),
       empty=st.lists(st.integers(0, 39), max_size=40))
# summed along its rows pairwise, this matrix's largest sum moves
@example(dim=40, seed=2, empty=[1, 5])
def test_dense_bound_is_largest_row_sum(dim, seed, empty):
    # the dense path's bound, the column sums of |H| added down each column
    # in row order, equals _largest_row_sum's sequential row sums bit for
    # bit; rows of up to 40 entries would show a pairwise sum along rows
    empty = [row for row in empty if row < dim]
    half = half_of(symmetric_with_empty_rows(dim, empty, seed))
    # every residual fails, so the error carries the bound, here tol * 1.0
    with mock.patch.object(np.linalg, "norm", return_value=np.full(1, np.inf)), \
            pytest.raises(ConvergenceFailureError) as exc:
        lanczos_lowest(FockOperator(FockBasis(1, dim - 1), half), 1, tol=1.0)
    assert bits(exc.value.context["bound"]) == bits(_largest_row_sum(half) or 1.0)


def test_lanczos_peak_memory_within_0_15_full_matrix():
    # the eigensolve reads only the half form, and the residual bound reads
    # |H| a chunk of rows at a time: about 0.11 times the full CSR matrix;
    # a full np.abs(data) copy took the peak to about two thirds of it, and
    # expanding the half form to the full matrix would take it above one
    basis = FockBasis(6, 3)
    h = build_phi4_hamiltonian(ModelParams(1.0, 0.3), D3, G43, basis)
    # a first iterative solve loads scipy.sparse.linalg outside the trace
    lanczos_lowest(build_phi4_hamiltonian(ModelParams(1.0, 0.3), D3, G43,
                                          FockBasis(4, 3)), 4)
    tracemalloc.start()
    try:
        lanczos_lowest(h, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert basis.dimension == 4096  # iterative path
    assert peak <= 0.15 * full_csr_bytes(h)


def test_ground_energy_variational_in_cutoff():
    p = ModelParams(1.0, 0.1, 1.0)
    energies = []
    for nmax in (2, 3, 4, 5):
        h = build_phi4_hamiltonian(p, D3, G43, FockBasis(2, nmax))
        energies.append(lanczos_lowest(h, 1)[0][0])
    assert all(b <= a + 1e-12 for a, b in zip(energies, energies[1:]))


def test_first_order_coupling_slope():
    b = FockBasis(2, 8)
    h0 = build_phi4_hamiltonian(ModelParams(1.0, 0.0, 1.0), D3, G43, b)
    lam = 1e-3
    h1 = build_phi4_hamiltonian(ModelParams(1.0, lam, 1.0), D3, G43, b)
    w0, v0 = np.linalg.eigh(dense(h0))
    g0 = v0[:, 0]
    first_order = g0 @ ((dense(h1) - dense(h0)) @ g0)
    measured = np.linalg.eigvalsh(dense(h1))[0] - w0[0]
    assert abs(measured - first_order) < 0.01 * abs(first_order)


def test_parity_and_block_diagnostics():
    h = build_phi4_hamiltonian(ModelParams(1.0, 0.0, 1.0), D3, None, FockBasis(1, 6))
    counts = block_leakage_counts(h)
    assert counts["parity_violations"] == 0
    # gamma = omega: pure number operator, except for couplings at the
    # 1e-15 scale inherited from the derivative-table row sum
    assert block_leakage_counts(h, tol=1e-12)["off_block"] == 0
    h2 = build_phi4_hamiltonian(ModelParams(1.0, 0.3, 1.2), D3, G43, FockBasis(2, 4)
    )
    assert block_leakage_counts(h2)["parity_violations"] == 0


def bits(a):
    return np.asarray(a).tobytes()


def assert_csr_bitwise(got, ref):
    for attr in ("data", "indices", "indptr"):
        assert getattr(got, attr).dtype == getattr(ref, attr).dtype
        assert bits(getattr(got, attr)) == bits(getattr(ref, attr))


def small_lattice(max_dim=1024):
    """(modes, nmax) with modes 1..6, so modes < 2K (aliased offsets) for
    both orders drawn below, and dim <= max_dim."""
    return st.integers(1, 6).flatmap(lambda m: st.tuples(
        st.just(m),
        st.integers(1, max(n for n in (1, 2, 3) if (n + 1) ** m <= max_dim))))


@settings(max_examples=30, deadline=None)
@given(K=st.sampled_from((3, 4)), k=st.integers(0, 1), lattice=small_lattice(),
       mass2=st.sampled_from((0.5, 1.0, 2.0)), lam=st.sampled_from((0.0, 0.3)),
       gamma=st.sampled_from((0.0, 0.7, 1.9)))
def test_assembly_bitwise_matches_two_list_reference(K, k, lattice, mass2, lam, gamma):
    modes, nmax = lattice
    p = ModelParams(mass2, lam, gamma)  # gamma 0 takes the default sqrt(mass2)
    d_t, g4_t = scaled_tables(K, k)
    basis = FockBasis(modes, nmax)
    got = build_phi4_hamiltonian(p, d_t, g4_t, basis).matrix
    assert_csr_bitwise(got, assemble_reference(p, d_t, g4_t, basis))
    # symmetric entry by entry, and normal ordering leaves <vac|H|vac> = 0
    assert (got != got.T).nnz == 0
    assert got[0, 0] == 0.0
    # a key and its conjugate collect the same weights in the same order
    terms = model_terms(p, d_t, g4_t, modes)
    for (cr, an), coeff in terms.items():
        assert bits(terms[(an, cr)]) == bits(coeff)


def test_assembly_bitwise_at_bench_size():
    p = ModelParams(1.0, 0.3)
    basis = FockBasis(6, 3)
    assert basis.dimension == 4096
    got = build_phi4_hamiltonian(p, D3, G43, basis).matrix
    assert_csr_bitwise(got, assemble_reference(p, D3, G43, basis))


@settings(max_examples=20, deadline=None)
@given(K=st.sampled_from((3, 4)), k=st.integers(0, 1), modes=st.integers(1, 8),
       mass2=st.sampled_from((0.5, 1.0, 2.0)), lam=st.sampled_from((0.1, 0.3, 1.0)),
       gamma=st.sampled_from((0.7, 1.0, 1.9)))
def test_quartic_terms_match_dict_loop(K, k, modes, mass2, lam, gamma):
    d_t, g4_t = scaled_tables(K, k)
    w_mat, t_dense = wrap_matrix(d_t, modes), wrap_tensor_dense(g4_t, modes)
    # the second fold lands on keys the first one already holds
    got = _quadratic_terms(w_mat, mass2, gamma, modes)
    ref = _quadratic_terms(w_mat, mass2, gamma, modes)
    for c in (lam, 0.5 * lam):
        got = _quartic_terms(t_dense, c, gamma, modes, got)
        ref = quartic_reference(t_dense, c, gamma, modes, ref)
    assert list(got) == list(ref)
    assert [bits(v) for v in got.values()] == [bits(v) for v in ref.values()]


def joined(terms, dim):
    """Flat positions row * dim + col and values coeff * amp of applied
    terms (coeff, src, shift, amp), in term order."""
    pos = [((src + shift) * dim + src).ravel() for _, src, shift, _ in terms]
    vals = [coeff * np.broadcast_to(amp, src.shape).ravel()
            for coeff, src, _, amp in terms]
    return (np.concatenate(pos or [np.empty(0, np.int64)]),
            np.concatenate(vals or [np.empty(0)]))


def stable_sums(pos, vals):
    """Sorted unique positions and the sums of their values in input
    order, by a stable argsort."""
    order = np.argsort(pos, kind="stable")
    pos, vals = pos[order], vals[order]
    starts = np.flatnonzero(np.diff(pos, prepend=-1))
    return pos[starts], np.add.reduceat(vals, starts)


def mirror_tail_reference(terms, dim):
    """The former assembly tail, the reference for _symmetric_csr: one
    concatenated (position, value) pair summed by a stable sort, every
    off-diagonal sum mirrored into COO arrays, and each row sorted again
    by scipy."""
    pos, sums = stable_sums(*joined(terms, dim))
    r, c = pos // dim, pos % dim
    off = r != c
    return sp.coo_matrix(
        (np.concatenate([sums, sums[off]]),
         (np.concatenate([r, c[off]]), np.concatenate([c, r[off]]))),
        shape=(dim, dim)).tocsr()


@st.composite
def applied_terms(draw):
    """(terms, dim): synthetic applied terms (coeff, src, shift, amp) of a
    dim x dim matrix.  Small dims give repeated positions within and
    across terms, both triangles, empty rows, and dim 1.  Some draws are
    diagonal only, and in some every off-diagonal term has a negative
    shift, so each of those diagonals holds only its -shift group.  Some
    sources are empty, some amplitudes a scalar, and some terms are
    followed by their negated mirror, so that a + b cancels exactly, or
    by their own negation, so that a diagonal's sum cancels exactly."""
    dim = draw(st.integers(1, 9))
    diagonal_only = draw(st.booleans())
    upper_only = draw(st.booleans())
    value = st.floats(-1e12, 1e12)
    terms = []
    for _ in range(draw(st.integers(0, 6))):
        if diagonal_only:
            shift = 0
        else:
            shift = draw(st.integers(1 - dim, 0 if upper_only else dim - 1))
        src = np.array(draw(st.lists(
            st.integers(max(0, -shift), dim - 1 - max(0, shift)),
            max_size=draw(st.sampled_from((0, 4, 12))))), dtype=np.int64)
        if draw(st.booleans()):
            amp = draw(value)
        else:
            amp = np.array(draw(st.lists(value, min_size=src.size,
                                         max_size=src.size)))
        coeff = draw(value)
        terms.append((coeff, src, shift, amp))
        follow = draw(st.sampled_from(("", "mirror", "negated")))
        if follow == "mirror" and shift and not upper_only:
            terms.append((-coeff, src + shift, -shift, amp))
        elif follow == "negated":
            terms.append((-coeff, src, shift, amp))
    return terms, dim


def assert_half_bitwise(half, ref):
    """half is the diagonal and strict upper triangle of the symmetric CSR
    matrix ref, bit for bit, and expands back to ref."""
    assert (ref != ref.T).nnz == 0
    assert bits(half.diagonal) == bits(ref.diagonal())
    assert_csr_bitwise(half, sp.triu(ref, k=1, format="csr"))
    assert_csr_bitwise(full_csr(half), ref)


@settings(max_examples=300, deadline=None)
@given(applied_terms())
# a lone term whose sources repeat must still be summed per column
@example(([(1.0, np.array([0, 0]), 1, np.array([0.5, 0.25]))], 2))
def test_symmetric_csr_matches_mirror_tail(case):
    terms, dim = case
    ref = mirror_tail_reference(terms, dim)
    # the one rule that changed: a sum of exactly zero is not stored
    ref.eliminate_zeros()
    got = _symmetric_csr(terms, dim)
    assert_half_bitwise(got, ref)
    assert not (got.data == 0.0).any()


def test_symmetric_csr_stores_no_exact_zero():
    # terms (coeff, src, shift, amp) put coeff * amp at (src + shift, src).
    # (0, 1) and (1, 0) cancel in the mirror sum, (2, 2) in its diagonal's
    # sum, and (3, 3) holds a lone -0.0; on the last row, (4, 4) cancels in
    # its diagonal and (4, 1) with (1, 4) in the mirror sum.  Rows 1, 3 and
    # 4 lose every entry; only (0, 2) and its mirror are left
    terms = [(1.0, np.array([1]), -1, 1.5),
             (1.0, np.array([0]), 1, -1.5),
             (1.0, np.array([2, 3]), 0, np.array([2.0, -0.0])),
             (-1.0, np.array([2]), 0, 2.0),
             (0.5, np.array([2]), -2, 0.5),
             (1.0, np.array([4]), 0, 3.0),
             (2.0, np.array([1]), 3, 1.0),
             (-2.0, np.array([4]), -3, 1.0),
             (-1.0, np.array([4]), 0, 3.0)]
    got = _symmetric_csr(terms, 5)
    assert got.data.tolist() == [0.25] and got.indices.tolist() == [2]
    assert got.indptr.tolist() == [0, 1, 1, 1, 1, 1]
    assert bits(got.diagonal) == bits(np.zeros(5))  # +0.0, the -0.0 too
    full = full_csr(got)
    assert full.nnz == 2
    assert full.toarray().tolist() == [[0, 0, 0.25, 0, 0], [0, 0, 0, 0, 0],
                                       [0.25, 0, 0, 0, 0], [0, 0, 0, 0, 0],
                                       [0, 0, 0, 0, 0]]
    assert full.indptr.tolist() == [0, 1, 1, 2, 2, 2]
    ref = mirror_tail_reference(terms, 5)
    ref.eliminate_zeros()
    assert_half_bitwise(got, ref)


# vector entries: both signed zeros and magnitudes from 1e-12 to 1e12
wide_values = st.one_of(
    st.sampled_from((0.0, -0.0)),
    st.builds(lambda m, e: m * 10.0 ** e, st.floats(-9.99, 9.99), st.integers(-12, 11)))


@settings(max_examples=300, deadline=None)
@given(applied_terms(), st.integers(1, 3), st.data())
def test_half_product_matches_full_csr_product(case, k, draw):
    # the reference keeps its exact-zero sums stored: a stored 0 adds a
    # signed zero to a row sum that never holds -0.0, so it cannot show
    terms, dim = case
    ref = mirror_tail_reference(terms, dim)
    half = _symmetric_csr(terms, dim)
    x = np.array(draw.draw(st.lists(wide_values, min_size=dim, max_size=dim)))
    assert bits(_half_product(half, x)) == bits(ref @ x)
    block = np.array(draw.draw(st.lists(wide_values, min_size=dim * k,
                                        max_size=dim * k))).reshape(dim, k)
    assert bits(_half_product(half, block)) == bits(ref @ block)
    for chunk in (1, 2, fock._BOUND_CHUNK):
        with mock.patch.object(fock, "_BOUND_CHUNK", chunk):
            assert bits(_largest_row_sum(half)) == bits(largest_row_sum(ref))


def full_csr_lanczos(mat, count, tol=1e-10):
    """The iterative path on the full CSR matrix, the oracle for
    lanczos_lowest: scipy's eigsh on mat itself from the same start vector,
    residuals from mat's own product, and the bound from its sequential
    row sums."""
    import scipy.sparse.linalg as spla

    v0 = np.random.default_rng(fock._START_SEED).standard_normal(mat.shape[0])
    evals, evecs = spla.eigsh(mat, k=count, which="SA", v0=v0, tol=tol)
    order = np.argsort(evals)
    evals, evecs = evals[order], evecs[:, order]
    resid = np.linalg.norm(mat @ evecs - evecs * evals, axis=0)
    return evals, resid, tol * largest_row_sum(mat)


def test_lanczos_matches_full_csr_eigsh_bitwise():
    basis = FockBasis(6, 3)
    h = build_phi4_hamiltonian(ModelParams(1.0, 0.3), D3, G43, basis)
    assert basis.dimension == 4096  # iterative path
    evals, resid, bound = full_csr_lanczos(h.matrix, 4)
    got = lanczos_lowest(h, 4)
    assert bits([e for e, _ in got]) == bits(evals)
    assert bits([r for _, r in got]) == bits(resid)
    assert bits(1e-10 * _largest_row_sum(h.half)) == bits(bound)


def full_csr_bytes(op):
    m = op.matrix
    return m.data.nbytes + m.indices.nbytes + m.indptr.nbytes


def test_assembly_peak_memory_within_0_65_full_matrix():
    # the diagonal and the upper triangle only, the diagonal summed before
    # the upper arrays exist, rows counted first and each diagonal written
    # straight to its slots: about 0.61 times the full CSR matrix.  With
    # the diagonal summed last the peak was 0.76 times, with both
    # triangles stored 1.26, holding the lower triangle until the arrays
    # were sized 1.6, one sort of every entry and scipy's S + T merge 2.2,
    # and the mirrored COO arrays and scipy's per-row re-sort above five
    p, basis = ModelParams(1.0, 0.3), FockBasis(6, 3)
    build_phi4_hamiltonian(p, D3, G43, FockBasis(2, 2))
    tracemalloc.start()
    try:
        h = build_phi4_hamiltonian(p, D3, G43, basis)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert basis.dimension == 4096
    assert peak <= 0.65 * full_csr_bytes(h)


def mode_operator(basis, mode, which, gamma=1.0):
    """Single-mode ladder, field or momentum matrix as a scipy CSR matrix,
    built on fock._apply_term, so the ladder tests check the code that applies
    every Hamiltonian term.  None of them is symmetric, so none has a half
    form.

    which: annihilate | create | phi | pi_times_i, with
    phi = (a + a^+)/sqrt(2 gamma) and pi_times_i the real antisymmetric
    matrix sqrt(gamma/2) (a^+ - a) representing Pi/i.
    """
    if not 0 <= mode < basis.modes:
        raise IndexRangeError("mode out of range", mode=mode, modes=basis.modes)
    dim = basis.dimension

    def mat(creators, annihilators, coeff):
        src, shift, amp = fock._apply_term(basis, creators, annihilators)
        amp = np.broadcast_to(amp, src.shape).ravel()
        src = src.ravel()
        return sp.coo_matrix((coeff * amp, (src + shift, src)), shape=(dim, dim)).tocsr()

    if which == "annihilate":
        return mat((), (mode,), 1.0)
    if which == "create":
        return mat((mode,), (), 1.0)
    if which == "phi":
        c = 1.0 / np.sqrt(2.0 * gamma)
        return mat((), (mode,), c) + mat((mode,), (), c)
    c = np.sqrt(gamma / 2.0)
    return mat((mode,), (), c) + mat((), (mode,), -c)


def mode_operator_reference(basis, mode, which, gamma):
    dim = basis.dimension

    def mat(creators, annihilators, coeff):
        src, tgt, amp = apply_reference(basis, creators, annihilators)
        return sp.coo_matrix((coeff * amp, (tgt, src)), shape=(dim, dim)).tocsr()

    if which == "annihilate":
        return mat((), (mode,), 1.0)
    if which == "create":
        return mat((mode,), (), 1.0)
    if which == "phi":
        c = 1.0 / np.sqrt(2.0 * gamma)
        return mat((), (mode,), c) + mat((mode,), (), c)
    c = np.sqrt(gamma / 2.0)
    return mat((mode,), (), c) + mat((), (mode,), -c)


@pytest.mark.parametrize("which", ["annihilate", "create", "phi", "pi_times_i"])
def test_mode_operator_bitwise_matches_all_states_reference(which):
    for modes, cutoff in ((1, 1), (1, 6), (3, 2), (4, 3)):
        basis = FockBasis(modes, cutoff)
        for mode in range(modes):
            got = mode_operator(basis, mode, which, gamma=1.7)
            assert_csr_bitwise(got, mode_operator_reference(basis, mode, which, 1.7))


@pytest.mark.xfail(strict=True, reason=(
    "ARPACK (which='SA', one start vector) returns one copy of the +-k "
    "doublet at 0.111594 and the fifth eigenvalue 0.248957 in place of the "
    "second; the fix lands together with regenerated bench reference spectra"))
def test_lanczos_keeps_both_copies_of_a_doublet():
    basis = FockBasis(4, 3)
    h = build_phi4_hamiltonian(ModelParams(1.0, 0.1), D3, G43, basis)
    assert basis.dimension == 256  # iterative path
    got = np.array([e for e, _ in lanczos_lowest(h, 4)])
    ref = np.linalg.eigvalsh(dense(h))[:4]
    assert np.abs(got - ref).max() < 1e-8
