"""Adjacent-scale splitting and similarity-renormalization flow.

One wavelet-transform stage W, the analysis step applied to the identity
(`transform.stage_matrix`), sends the fine-scale coefficient tensors
into coarse (s) and detail (w) blocks: quadratic tensors by congruence
W D W^T, quartic tensors by contracting one W factor per index.  The ss
and ssss blocks reproduce the directly rescaled coarse-scale tensors,
which is the coefficient-level statement that the coarse modes of a
fine lattice ARE the coarse lattice.  A quartic block is periodic under a
joint shift of its four indices, so it is kept as its a = 0 slab, an
(N/2)^3 array in the convention of connection.wrap_tensor_dense, and a
split of N sites takes O(N^3) memory.

The flow dH/dlambda = [H, [H, G]] with G the diagonal (or block
diagonal) part of H is the Wegner generator written with the outer
commutator expanded: [H,[H,G]] = [[G,H],H], so the displayed nesting
already decays the off-generator blocks.  srg_flow integrates it as an
autonomous ODE with the Dormand-Prince 8(5,3) pair (DOP853), re-reading
the generator at every stage; the right-hand side uses the structure of
G (one n x n product for the diagonal generator, six block products for
the block one).  Both generators keep a direct sum block diagonal, so
the flow runs on the connected components of the start matrix's
nonzero pattern, each a dense block of its own, with one shared step.
At the flow's tolerance the step size is limited by
accuracy, not stability, so a high-order pair takes far fewer steps.  A
sign probe still watches the first accepted step and raises a flag
instead of proceeding silently if the off norm grows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .connection import CoeffTensor, wrap_matrix, wrap_tensor_dense
from .errors import ShapeError, StiffnessError
from .filters import FilterPair
from .transform import stage_matrix

__all__ = [
    "SplitTensors",
    "FlowState",
    "StepControl",
    "split_tensors",
    "coupling_matrix",
    "srg_flow",
]

_PATTERNS4 = ("ssss", "sssw", "ssww", "swww", "wwww")
MAX_FLOW_DIM = 512  # the CLI matrix reader checks it before allocating


@dataclass(frozen=True)
class SplitTensors:
    """Two-scale blocks of the quadratic and quartic tensors.

    ss, sw, ws and ww are the (N/2, N/2) quadratic blocks, or None when no
    derivative table was split.  quartic maps each pattern "ssss", "sssw",
    "ssww", "swww", "wwww" to its periodic block held as the a = 0 slab q,
    an (N/2)^3 array: T[a, b, c, d] = q[(b-a) % (N/2), (c-a) % (N/2),
    (d-a) % (N/2)], the convention of connection.wrap_tensor_dense and of
    the four-point cube fock reads.  The ssss slab is the wrapped coarse
    four-point table itself.
    """

    order: int
    fine_scale: int
    fine_dim: int
    ss: np.ndarray | None
    sw: np.ndarray | None
    ws: np.ndarray | None
    ww: np.ndarray | None
    quartic: dict


@dataclass(frozen=True)
class FlowState:
    lam: float
    h_matrix: np.ndarray = field(repr=False)
    generator_spec: str = "wegner-diagonal"
    partition: int | None = None

    def __post_init__(self):
        h = np.asarray(self.h_matrix, dtype=np.float64)
        if h.ndim != 2 or h.shape[0] != h.shape[1]:
            raise ShapeError("flow matrix must be square", shape=h.shape)
        if h.shape[0] == 0:
            raise ShapeError("flow matrix is empty")
        if h.shape[0] > MAX_FLOW_DIM:
            raise ShapeError(f"flow matrices are capped at {MAX_FLOW_DIM}",
                             dim=h.shape[0])
        if not np.isfinite(h).all():
            raise ShapeError("flow matrix must be finite")
        if np.abs(h - h.T).max() > 1e-12 * max(1.0, np.abs(h).max()):
            raise ShapeError("flow matrix must be symmetric")
        if self.lam < 0:
            raise ShapeError("flow parameter must be nonnegative", lam=self.lam)
        if self.generator_spec not in ("wegner-diagonal", "wegner-block"):
            raise ShapeError("unknown generator", generator=self.generator_spec)
        if self.generator_spec == "wegner-block":
            p = self.partition
            if p is None or not 0 < p < h.shape[0]:
                raise ShapeError("wegner-block needs a partition inside the matrix",
                                 partition=p)
        object.__setattr__(self, "h_matrix", h.copy())


@dataclass(frozen=True)
class StepControl:
    # default tol keeps trace/Frobenius conserved to 1e-10 over unit lambda spans
    tol: float = 1e-13
    initial_step: float = 1e-3
    max_steps: int = 200000
    min_step: float = 1e-14


def split_tensors(d_fine: CoeffTensor | None, g4_fine: CoeffTensor,
                  fp: FilterPair, n: int) -> SplitTensors:
    """Transform fine-scale tensors through one stage and partition.

    d_fine may be None (order 1 has no derivative table); the quadratic
    blocks are then omitted.  Both tensors must be wrapped on n modes at
    the same fine scale.

    The quartic blocks use the stage's shift-by-two symmetry: row a+1 of
    W is row a rolled by two fine sites and the periodic tensor is
    invariant under a joint shift of its indices, so every block obeys
    T[a+1, b+1, c+1, d+1] = T[a, b, c, d] (mod N/2).  Each block is
    therefore kept as its a = 0 slab q, an (N/2)^3 array read as
    T[a, b, c, d] = q[(b-a) % (N/2), (c-a) % (N/2), (d-a) % (N/2)], the
    convention of connection.wrap_tensor_dense.  The slab is contracted
    against the N^3 wrapped cube, so memory is O(N^3): neither the
    periodic N^4 tensor nor an (N/2)^4 block is ever formed.
    """
    w = stage_matrix(fp, n)
    half = n // 2
    scale = None
    if d_fine is not None:
        if d_fine.order != fp.order:
            raise ShapeError("derivative table order mismatch",
                             tensor=d_fine.order, filter=fp.order)
        scale = d_fine.scale
    if g4_fine.order != fp.order:
        raise ShapeError("four-point table order mismatch",
                         tensor=g4_fine.order, filter=fp.order)
    if scale is None:
        scale = g4_fine.scale
    elif g4_fine.scale != scale:
        raise ShapeError("tensors at different scales",
                         derivative=scale, four_point=g4_fine.scale)

    ss = sw = ws = ww = None
    if d_fine is not None:
        t = w @ wrap_matrix(d_fine, n) @ w.T
        ss, sw = t[:half, :half], t[:half, half:]
        ws, ww = t[half:, :half], t[half:, half:]

    # The a = 0 slab: row 0 has taps only at columns 0..2K-1 and the
    # periodic tensor is full[i, j, k, l] = dense[j-i, k-i, l-i], so
    # T[0, b, c, d] = sum_tap w0[tap] (rows x rows x rows) . roll(dense, tap):
    # the tap sum folds into one weighted cube per kind of first row.
    dense = wrap_tensor_dense(g4_fine, n)
    rows = {"s": w[:half], "w": w[half:]}
    cubes = {p: sum(r[0, tap] * np.roll(dense, tap, axis=(0, 1, 2))
                    for tap in range(2 * fp.order))
             for p, r in rows.items()}
    quartic = {pat: np.einsum("bp,cq,dr,pqr->bcd", *(rows[p] for p in pat[1:]),
                              cubes[pat[0]], optimize=True)
               for pat in _PATTERNS4}
    return SplitTensors(fp.order, scale, n, ss, sw, ws, ww, quartic)


def coupling_matrix(split: SplitTensors) -> np.ndarray:
    """Reassembled quadratic two-scale matrix [[ss, sw], [ws, ww]]."""
    if split.ss is None:
        raise ShapeError("no quadratic blocks in this split")
    return np.block([[split.ss, split.sw], [split.ws, split.ww]])


def _off_norm2(h, spec, partition):
    if spec == "wegner-diagonal":
        return float((h**2).sum() - (np.diag(h) ** 2).sum())
    p = partition
    return float(2.0 * (h[:p, p:] ** 2).sum())


def _wegner_rhs(h, spec, partition):
    """[H, [H, G(H)]] for a symmetric H, from the structure of G.

    C = [H, G] is antisymmetric, so [H, C] = HC + (HC)^T.  For the
    diagonal generator C_ij = h_ij (d_j - d_i) costs no product, leaving
    one n x n product.  For the block generator, with H = [[A, B], [B^T,
    D]], C = [[0, E], [-E^T, 0]] where E = BD - AB, and [H, C] takes six
    products of the blocks.  The result is exactly symmetric: diagonal
    blocks have the form X + X^T and the lower off-diagonal block is the
    transpose of the upper one.
    """
    if spec == "wegner-diagonal":
        d = np.diag(h)
        m = h @ (h * (d[None, :] - d[:, None]))
        return m + m.T
    p = partition
    a, b, d = h[:p, :p], h[:p, p:], h[p:, p:]
    e = b @ d - a @ b
    out = np.empty_like(h)
    x = b @ e.T
    out[:p, :p] = -(x + x.T)
    out[:p, p:] = a @ e - e @ d
    out[p:, :p] = out[:p, p:].T
    y = b.T @ e
    out[p:, p:] = y + y.T
    return out


# Dormand & Prince 8(5,3) pair, DOP853 of Hairer, Norsett & Wanner,
# Solving Ordinary Differential Equations I, Sec. II.10 (the values of
# scipy.integrate.DOP853.A, B, E3 and E5, written out so that the flow
# does not import scipy.integrate).  Row i of _DOP_A builds stage i + 2
# from the stages before it; _DOP_B gives the eighth-order point.
# _DOP_E5 and _DOP_E3 are the eighth-order weights minus those of the
# embedded fifth- and third-order formulas; the derivative at the new
# point, which serves as the next step's first stage, has weight zero in
# both.
_DOP_A = (
    (0.05260015195876773,),
    (0.0197250569845379, 0.0591751709536137),
    (0.02958758547680685, 0.0, 0.08876275643042054),
    (0.2413651341592667, 0.0, -0.8845494793282861, 0.924834003261792),
    (0.037037037037037035, 0.0, 0.0, 0.17082860872947386,
     0.12546768756682242),
    (0.037109375, 0.0, 0.0, 0.17025221101954405, 0.06021653898045596,
     -0.017578125),
    (0.03709200011850479, 0.0, 0.0, 0.17038392571223998,
     0.10726203044637328, -0.015319437748624402, 0.008273789163814023),
    (0.6241109587160757, 0.0, 0.0, -3.3608926294469414, -0.868219346841726,
     27.59209969944671, 20.154067550477894, -43.48988418106996),
    (0.47766253643826434, 0.0, 0.0, -2.4881146199716677, -0.590290826836843,
     21.230051448181193, 15.279233632882423, -33.28821096898486,
     -0.020331201708508627),
    (-0.9371424300859873, 0.0, 0.0, 5.186372428844064, 1.0914373489967295,
     -8.149787010746927, -18.52006565999696, 22.739487099350505,
     2.4936055526796523, -3.0467644718982196),
    (2.273310147516538, 0.0, 0.0, -10.53449546673725, -2.0008720582248625,
     -17.9589318631188, 27.94888452941996, -2.8589982771350235,
     -8.87285693353063, 12.360567175794303, 0.6433927460157636),
)
_DOP_B = (0.054293734116568765, 0.0, 0.0, 0.0, 0.0, 4.450312892752409,
          1.8915178993145003, -5.801203960010585, 0.3111643669578199,
          -0.1521609496625161, 0.20136540080403034, 0.04471061572777259)
_DOP_E3 = (-0.18980075407240762, 0.0, 0.0, 0.0, 0.0, 4.450312892752409,
           1.8915178993145003, -5.801203960010585, -0.4226823213237919,
           -0.1521609496625161, 0.20136540080403034, 0.02265179219836082)
_DOP_E5 = (0.01312004499419488, 0.0, 0.0, 0.0, 0.0, -1.2251564463762044,
           -0.4957589496572502, 1.6643771824549864, -0.35032884874997366,
           0.3341791187130175, 0.08192320648511571, -0.022355307863886294)


def _combine(h, weights, ks, dt):
    """h + dt * sum_i w_i k_i, formed entry-wise in stage order, so
    symmetric h and k_i give an exactly symmetric result."""
    y = h.copy()
    for w, k in zip(weights, ks):
        if w:
            y += (dt * w) * k
    return y


def _dop853_step(blocks, k1s, dt, rhss):
    """One DOP853 attempt from every block with one shared dt, where
    k1s[i] = rhss[i](blocks[i]).

    Returns the blocks' eighth-order points and Hairer's combined error
    estimate in the Frobenius norm over all the blocks,
    dt |e5|^2 / sqrt(|e5|^2 + 0.01 |e3|^2): of eighth order, with the
    third-order difference guarding against a fifth-order difference that
    vanishes by accident.  Each squared norm is summed block by block from
    numpy sums of squares, not BLAS dot products, so the estimate does not
    depend on the BLAS thread count.  The blocks are stepped one after the
    other, so only one block's stages are held at a time.  Costs eleven
    right-hand sides per block.
    """
    points, e5, e3 = [], 0.0, 0.0
    for h, k1, rhs in zip(blocks, k1s, rhss):
        ks = [k1]
        for row in _DOP_A:
            ks.append(rhs(_combine(h, row, ks, dt)))
        zero = np.zeros_like(h)
        e5 += float((_combine(zero, _DOP_E5, ks, 1.0) ** 2).sum())
        e3 += float((_combine(zero, _DOP_E3, ks, 1.0) ** 2).sum())
        points.append(_combine(h, _DOP_B, ks, dt))
    err = 0.0 if e5 == 0.0 else dt * e5 / np.sqrt(e5 + 0.01 * e3)
    return points, float(err)


def _components(h):
    """Index arrays of the connected components of h's nonzero pattern,
    each ascending, in the order of their smallest index."""
    linked = h != 0
    left = np.ones(h.shape[0], dtype=bool)
    comps = []
    while left.any():
        members = np.zeros_like(left)
        members[np.argmax(left)] = True
        frontier = members.copy()
        while frontier.any():
            frontier = linked[frontier].any(axis=0) & ~members
            members |= frontier
        left &= ~members
        comps.append(np.flatnonzero(members))
    return comps


def srg_flow(state: FlowState, lambda_end: float, control: StepControl | None = None):
    """Integrate the flow to lambda_end with the Dormand-Prince 8(5,3) pair.

    The autonomous ODE dH/dlambda = [H, [H, G(H)]] is integrated with the
    generator re-read at every stage, and each accepted step costs twelve
    right-hand sides: eleven stages, and the derivative at the new point,
    which is the next step's first stage (a rejected attempt costs the
    eleven).  A step is accepted when the combined error estimate is
    within tol * max(1, |H_0|_F), and the next step is scaled by
    0.9 (tol / err)^(1/8) within [0.2, 5].  The input is symmetrised once;
    every stage is then exactly symmetric.  On the twenty seeded
    unit-lambda 16x16 flows of acceptance criterion 11 the eigenvalues
    drift by at most 3.2e-14, and tightening tol to 1e-15 moves the final
    matrix by roundoff only.  Step control takes its norms as numpy sums,
    not BLAS dot products, so it adds no dependence on the BLAS thread
    count to that of the right-hand side's matrix products.

    The flow keeps a direct sum block diagonal (Wegner, Ann. Phys.
    (Leipzig) 3 (1994) 77): both generators are direct sums when H is, so
    no entry between two blocks ever becomes nonzero.  The connected
    components of H_0's nonzero pattern are therefore found once, and each
    is flowed as a dense block of its own, all with one shared step; the
    block generator splits a block after its indices below the partition,
    and a block on one side of it stays constant.  The error estimate and
    the off norm are summed over the blocks and the drift is taken over
    the union of their spectra.  A matrix of one component takes exactly
    the arithmetic of a dense flow of the whole.

    Returns the final state, the trajectory log
    [(lambda, off_norm, eigen_drift), ...] with one row per accepted
    step, and a report dict with step statistics and the sign-probe flag.
    A StiffnessError carries the trajectory so far and the state, with
    the blocks put back in place.
    """
    if control is None:
        control = StepControl()
    if lambda_end < state.lam:
        raise ShapeError("flow runs forward only", start=state.lam, end=lambda_end)
    if not np.isfinite(lambda_end):
        raise ShapeError("flow end point must be finite", end=lambda_end)
    h = 0.5 * (state.h_matrix + state.h_matrix.T)
    spec, part = state.generator_spec, state.partition
    n = h.shape[0]
    index = _components(h)
    parts = [None if part is None else int(np.count_nonzero(idx < part))
             for idx in index]
    rhss = [partial(_wegner_rhs, spec=spec, partition=p) for p in parts]
    hnorm = max(1.0, float(np.sqrt((h**2).sum())))
    blocks = [h[np.ix_(idx, idx)] for idx in index]
    del h
    tol_eff = control.tol * hnorm

    def spectrum(ms):
        return np.sort(np.concatenate([np.linalg.eigvalsh(m) for m in ms]))

    eig0 = spectrum(blocks)
    escale = max(1.0, float(np.abs(eig0).max()))

    def drift_of(ms):
        return float(np.abs(spectrum(ms) - eig0).max()) / escale

    def off_of(ms):
        return sum(_off_norm2(m, spec, p) for m, p in zip(ms, parts))

    def state_of(lam, ms):
        h = np.zeros((n, n))
        for idx, m in zip(index, ms):
            h[np.ix_(idx, idx)] = m
        return FlowState(lam, h, spec, part)

    lam = state.lam
    off = off_of(blocks)
    trajectory = [(lam, np.sqrt(off), 0.0)]
    dt = min(control.initial_step, max(lambda_end - lam, control.min_step))
    sign_flag = False
    monotonicity_breaks = 0
    accepted = rejected = 0
    first_accept = True
    k1s = [rhs(b) for rhs, b in zip(rhss, blocks)]
    while lam < lambda_end and accepted + rejected < control.max_steps:
        remaining = lambda_end - lam
        dt_try = min(dt, remaining)
        points, err = _dop853_step(blocks, k1s, dt_try, rhss)
        if err <= tol_eff:
            blocks, k1s = points, [rhs(b) for rhs, b in zip(rhss, points)]
            lam = lambda_end if dt_try >= remaining else lam + dt_try
            accepted += 1
            new_off = off_of(blocks)
            if new_off > off + 1e-13 * hnorm**2:
                if first_accept:
                    sign_flag = True
                monotonicity_breaks += 1
            off = new_off
            first_accept = False
            trajectory.append((lam, np.sqrt(max(off, 0.0)), drift_of(blocks)))
        else:
            rejected += 1
        grow = 5.0 if err == 0.0 else min(5.0, max(0.2, 0.9 * (tol_eff / err) ** 0.125))
        dt = dt_try * grow
        if dt < control.min_step and lam < lambda_end:
            raise StiffnessError(
                "step size underflow",
                lam=lam,
                step=dt,
                trajectory=trajectory,
                state=state_of(lam, blocks),
            )
    if lam < lambda_end:
        raise StiffnessError(
            "step budget exhausted before lambda_end",
            lam=lam,
            steps=accepted + rejected,
            trajectory=trajectory,
            state=state_of(lam, blocks),
        )
    final = state_of(lam, blocks)
    report = {
        "accepted": accepted,
        "rejected": rejected,
        "sign_convention_flipped": sign_flag,
        "monotonicity_breaks": monotonicity_breaks,
    }
    return final, trajectory, report
