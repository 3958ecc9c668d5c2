"""Differential and algebraic Riccati machinery for the per-node gains.

The information-form gain K of a node evolves by

    dK/dt = S - K Q K - A^T K - K A,   S = C^T R^-1 C + sum_j W^T U^-1 W - M^-1

with K(0) = gains.K0, Xcal by default. This module owns that equation:
riccati_rhs is its one definition, evaluated as S - (H + H^T) with
H = (K Q/2 + A^T) K, so that its value is exactly symmetric, and gain_step
its one fixed-step classic RK4 step (linalg.rk4_step) on any stack of
gains. gain_pass loops gain_step over a chunk of steps for groups of gain
equations, which both the coupled engine (sim.simulate_runs, all N nodes
of every gain variant at once) and integrate_riccati (one gain) call chunk
by chunk. An exactly symmetric K0 thus gives exactly symmetric stage gains
and grid gains with no re-symmetrization. The one other stepper of the
gains is deliberate: sim.simulate_error_oracle steps them with its own RK4
loop, beside the errors, as the independent cross-check of the engine.
Runs are bit-reproducible, a gain has the same bits alone and in any
stack, the convergence-order check is meaningful, and the grid matches the
coupled simulation. K is never inverted here; the engine inverts the stage
gains of a chunk at once (sim._inverses).

The associated ARE  Z A^T + A Z - Z S Z + B B^T = 0  with
S = C^T R^-1 C + [Delta]_ii - M^-1 (possibly indefinite) is solved for its
stabilizing solution Z+ from the stable invariant subspace of the
Hamiltonian  H = [[A^T, -S], [-B B^T, -A]]  via an ordered real Schur
decomposition. The binding contract is the residual check, not the route.
stable_are_solutions is that Hamiltonian part for a stack of S sharing A
and Q, every step batched but the sorted Schur form; stable_are_solution is
its batch of one. solve_are_stabilizing is the PBH test of (A, B)
(check_stabilizable) followed by stable_are_solution; callers that solve
many AREs of one plant, such as the tuner's node certificates, run the PBH
test once and call stable_are_solutions directly.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import get_lapack_funcs

from .errors import (
    DimensionMismatch,
    LostPositivity,
    NonFinite,
    NoStabilizingSolution,
    NotStabilizable,
    PreconditionViolated,
)
from .linalg import (
    block_diag,
    definiteness_threshold,
    frobenius_norms,
    require_spd,
    require_symmetric,
    rk4_step,
    symmetrize,
)
from .model import GlobalMatrices, Network

# Residual acceptance for ARE solutions, scaled by the solution size.
ARE_TOL_SCALE = 1e-8
# Relative real-part threshold flagging Hamiltonian eigenvalues as imaginary-axis.
IMAG_AXIS_TOL = 1e-9
# Relative singular-value threshold in the PBH stabilizability test.
PBH_TOL = 1e-9

# Byte budget of the stage gains held for one chunk of a gain pass (four
# RK4 stage gains per step and gain). Small on purpose: the chunk's buffers
# (stage gains, and in the engine the three same-sized work arrays of
# sim._inverses and the inverses it returns) add directly to a run's peak
# resident memory, while larger chunks save little more Python overhead.
CHUNK_BYTES = 128 * 1024


@dataclass
class RiccatiCoefficients:
    """Constant coefficients of a gain equation, or of a stack of them.

    For a stack, obs_info, comm_info and m_inv are (..., n, n) and A, Q are
    shared; S then holds one quadratic coefficient per gain.
    """

    A: np.ndarray
    Q: np.ndarray
    obs_info: np.ndarray   # C^T R^-1 C
    comm_info: np.ndarray  # sum_j W^T U^-1 W
    m_inv: np.ndarray      # M^-1 (PSD; zero disables the attenuation penalty)
    S: np.ndarray = field(init=False)  # quadratic coefficient of the associated ARE
    half_Q: np.ndarray = field(init=False)  # Q / 2, a factor of riccati_rhs
    # A^T repeated to the shape of S: adding it to the stack of K Q/2 is then
    # one contiguous elementwise pass, not a broadcast
    At: np.ndarray = field(init=False)

    def __post_init__(self):
        self.S = symmetrize(self.obs_info + self.comm_info - self.m_inv)
        self.half_Q = 0.5 * self.Q
        self.At = np.ascontiguousarray(np.broadcast_to(self.A.T, self.S.shape))

    @classmethod
    def from_network(cls, net: Network, node_id: int, m_inv: np.ndarray):
        node = net.node(node_id)
        return cls(
            A=net.plant.A,
            Q=net.plant.Q,
            obs_info=node.CtRinvC,
            comm_info=net.delta_block(node_id),
            m_inv=np.asarray(m_inv, dtype=float),
        )

    @classmethod
    def for_nodes(cls, net: Network, m_inv_blocks):
        """Every node's gain equation as one (N, n, n) stack, node i at i - 1."""
        ids = net.node_ids()
        return cls(
            A=net.plant.A,
            Q=net.plant.Q,
            obs_info=np.stack([net.node(i).CtRinvC for i in ids]),
            comm_info=np.stack([net.delta_block(i) for i in ids]),
            m_inv=np.stack([np.asarray(m_inv_blocks[i - 1], dtype=float) for i in ids]),
        )


@dataclass
class GainTrajectory:
    """Gain trajectory on a uniform grid: K[k] is the gain at t[k]."""

    t: np.ndarray
    K: np.ndarray  # (len(t), n, n)


@dataclass
class AreSolution:
    """Stabilizing ARE solution with its self-diagnostics."""

    Zplus: np.ndarray
    residual: float
    closed_loop_spectral_abscissa: float

    def gain_limit(self) -> np.ndarray:
        """(Z+)^-1, the limit of the information-form gain."""
        return symmetrize(np.linalg.inv(self.Zplus))


@dataclass
class Prop1Report:
    """Gap between a gain trajectory and its ARE limit."""

    relative_gap_final: float
    gap_initial: float
    monotone_fraction: float      # fraction of steps with non-increasing gap
    nonincreasing_after: float    # earliest time after which the gap never grows
    k0_dominates: bool            # whether K(0) >= (Z+)^-1
    k0_min_eigenvalue: float      # min eig of K(0) - (Z+)^-1


def riccati_rhs(K: np.ndarray, coeffs: RiccatiCoefficients) -> np.ndarray:
    """Right-hand side of the gain equation for a gain or a stack (..., n, n).

    Evaluated as S - (H + H^T) with H = (K Q/2 + A^T) K, which for a
    symmetric K equals S - K Q K - A^T K - K A with one batched product.
    The value is exactly symmetric for any K: entries (i, j) and (j, i)
    add the same two numbers. K Q/2 is one 2-D product over the rows of
    the whole stack; a gain still has the same bits alone and in any stack,
    which test_riccati checks for n = 1..6.
    """
    n = K.shape[-1]
    H = (K.reshape(-1, n) @ coeffs.half_Q).reshape(K.shape)
    H += coeffs.At
    H = H @ K
    return coeffs.S - (H + H.swapaxes(-1, -2))


def gain_step(
    coeffs: RiccatiCoefficients,
    K: np.ndarray,
    dt: float,
    stages: np.ndarray,
    out: np.ndarray,
) -> None:
    """One RK4 step of the gain equation from the gains K, a gain or any
    stack (..., n, n) the coefficients broadcast against: writes the four
    stage gains to stages, shape (4,) + K.shape, and the gains one step
    later to out, which may be K itself. Each is exactly symmetric when K
    is."""
    rk4_step(lambda s, Kc: riccati_rhs(Kc, coeffs), K, dt, stages, out)


def chunk_steps(gains_shape) -> int:
    """Steps per gain_pass chunk for a gain stack of shape (..., n, n)."""
    return max(1, CHUNK_BYTES // (4 * 8 * int(np.prod(gains_shape))))


def gain_pass(
    coeffs: RiccatiCoefficients,
    Ks: np.ndarray,
    k0: int,
    k1: int,
    dt: float,
    t_grid: np.ndarray,
):
    """gain_step for steps k0..k1-1 of G groups of N gain equations from the
    gains Ks[:, :, k0].

    Ks is (G, N, len(t_grid), n, n) and the coefficients broadcast against
    (G, N, n, n); a group is one gain system, such as the N nodes of one
    network. The gain after step k is written to Ks[:, :, k + 1]; it is not
    re-symmetrized, as gains from an exactly symmetric Ks[:, :, k0] are
    exactly symmetric already. Returns the stage gains, shape
    (steps, 4, G, N, n, n) in step order; each group's smallest eigenvalue
    of its finite accepted gains, shape (G,) (None when there are none),
    from one batched eigvalsh; and the first failure at a grid point as
    (step offset, 4, error, group), or None. The 4 orders it after the four
    stages of its step; of the groups failing at that grid point, the first
    is named. The error is NonFinite when a gain turned non-finite, which
    ends the pass after that step, or LostPositivity, carrying the group's
    smallest eigenvalue, when a finite gain at an earlier grid point is not
    positive definite.
    """
    K = Ks[:, :, k0].copy()  # stepped in place, contiguous
    stages = np.empty((k1 - k0, 4) + K.shape)
    done, failure = k1 - k0, None
    for k in range(k0, k1):
        gain_step(coeffs, K, dt, stages[k - k0], K)
        Ks[:, :, k + 1] = K
        if not np.isfinite(K).all():
            group = int(np.flatnonzero(~np.isfinite(K).all(axis=(1, 2, 3)))[0])
            done, failure = k - k0, (k - k0, 4, NonFinite(float(t_grid[k + 1])), group)
            stages = stages[:done + 1]
            break
    grid = Ks[:, :, k0 + 1:k0 + 1 + done]
    min_eigs = np.linalg.eigvalsh(grid)[..., 0]
    lost = (min_eigs <= definiteness_threshold(grid)).any(axis=1)
    cols = np.flatnonzero(lost.any(axis=0))
    if cols.size:
        c = int(cols[0])
        group = int(np.flatnonzero(lost[:, c])[0])
        lost_at = LostPositivity(float(t_grid[k0 + c + 1]), float(min_eigs[group, :, c].min()))
        failure = (c, 4, lost_at, group)
    return stages, (min_eigs.min(axis=(1, 2)) if done else None), failure


def _check_uniform_grid(t_grid: np.ndarray) -> float:
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or t_grid.size < 2:
        raise DimensionMismatch("t_grid must be a 1-d array with at least 2 points")
    steps = np.diff(t_grid)
    dt = float(steps[0])
    if dt <= 0 or np.any(np.abs(steps - dt) > 1e-9 * max(dt, 1.0)):
        raise DimensionMismatch("t_grid must be strictly increasing and uniform")
    return dt


def integrate_riccati(
    coeffs: RiccatiCoefficients, K0: np.ndarray, t_grid: np.ndarray
) -> GainTrajectory:
    """Integrate the gain equation with classic RK4 on a uniform grid.

    Steps it through gain_pass as one group of one gain, in chunks of
    CHUNK_BYTES, so the gains are bit for bit those of the coupled engine.
    LostPositivity or NonFinite carry the first failing grid time; at one
    grid point non-finite is checked before positivity.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    dt = _check_uniform_grid(t_grid)
    K = require_spd(K0, "K0")
    out = np.empty((t_grid.size,) + K.shape)
    out[0] = K
    steps = t_grid.size - 1
    chunk = chunk_steps(K.shape)
    for k0 in range(0, steps, chunk):
        _, _, failure = gain_pass(
            coeffs, out[None, None], k0, min(k0 + chunk, steps), dt, t_grid
        )
        if failure is not None:
            raise failure[2]
    return GainTrajectory(t=t_grid.copy(), K=out)


def stacked_coefficients(
    net: Network, gm: GlobalMatrices, m_inv_blocks
) -> RiccatiCoefficients:
    """Coefficients of the stacked nN x nN gain equation."""
    N = net.N
    eye_n = np.eye(N)
    m_inv_blocks = list(m_inv_blocks)
    if len(m_inv_blocks) != N:
        raise DimensionMismatch(f"expected {N} M^-1 blocks, got {len(m_inv_blocks)}")
    return RiccatiCoefficients(
        A=np.kron(eye_n, net.plant.A),
        Q=np.kron(eye_n, net.plant.Q),
        obs_info=block_diag([node.CtRinvC for node in net.nodes]),
        comm_info=gm.Delta,
        m_inv=block_diag(m_inv_blocks),
    )


def integrate_global_riccati(
    net: Network, gm: GlobalMatrices, K0_blocks, t_grid, m_inv_blocks
) -> GainTrajectory:
    """Integrate the stacked gain equation; block-decoupled by construction,
    so the result must agree with per-node integrations block by block."""
    K0 = block_diag([np.asarray(b, dtype=float) for b in K0_blocks])
    coeffs = stacked_coefficients(net, gm, m_inv_blocks)
    return integrate_riccati(coeffs, K0, t_grid)


def check_stabilizable(A: np.ndarray, B: np.ndarray) -> None:
    """PBH test: rank of [A - lambda I, B] on every mode with Re lambda >= 0."""
    eigvals = np.linalg.eigvals(A)
    n = A.shape[0]
    for lam in eigvals:
        if lam.real < 0:
            continue
        pencil = np.hstack([A - lam * np.eye(n), B.astype(complex)])
        sv = np.linalg.svd(pencil, compute_uv=False)
        if sv[-1] < PBH_TOL * sv[0]:
            raise NotStabilizable(complex(lam), float(sv[-1]))


def _stable_first(re: float, im: float) -> bool:
    return re < 0.0


@functools.cache
def _gees(order: int):
    """LAPACK's real gees and its optimal workspace at this order: the
    workspace query scipy.linalg.schur makes on every call, which reads
    only the order."""
    a = np.zeros((order, order))
    gees, = get_lapack_funcs(("gees",), (a,))
    return gees, int(gees(lambda x: None, a, lwork=-1)[-2][0].real)


def _stable_schur(H: np.ndarray):
    """The orthogonal factor of each matrix's real Schur form with the open
    left half-plane first, and that block's dimension: per matrix of the
    float stack H (k, m, m), scipy.linalg.schur(H[j], output="real",
    sort=lambda re, im: re < 0.0) without its per-call set-up, raising the
    same errors."""
    k, m = H.shape[:2]
    gees, lwork = _gees(m)
    U, dims = np.empty_like(H), np.empty(k, dtype=int)
    for j in range(k):
        _, dims[j], _, _, U[j], _, info = gees(_stable_first, H[j], lwork=lwork, sort_t=1)
        if info < 0:
            raise ValueError(f"illegal value in {-info}-th argument of internal gees")
        if info == m + 1:
            raise np.linalg.LinAlgError("Eigenvalues could not be separated for reordering.")
        if info == m + 2:
            raise np.linalg.LinAlgError("Leading eigenvalues do not satisfy sort condition.")
        if info > 0:
            raise np.linalg.LinAlgError("Schur form not found. Possibly ill-conditioned.")
    return U, dims


def _drop(out: list, failed: np.ndarray, reason, alive: np.ndarray, *arrays):
    """Record NoStabilizingSolution(reason(p)) as the outcome of member
    alive[p] wherever failed[p]; returns alive and each of the arrays, which
    are aligned with it, without those positions."""
    if not np.count_nonzero(failed):
        return (alive,) + arrays
    for p in np.flatnonzero(failed):
        out[alive[p]] = NoStabilizingSolution(reason(p))
    keep = ~failed
    return (alive[keep],) + tuple(a[keep] for a in arrays)


def stable_are_solutions(A: np.ndarray, Q: np.ndarray, S: np.ndarray) -> list:
    """Stabilizing solutions Z+ of  Z A^T + A Z - Z S Z + Q = 0, one per
    matrix of the stack S (k, n, n), with A and Q shared: the Hamiltonian
    part.

    A, Q and S are float, S and Q exactly symmetric. Nothing is validated
    and no PBH test is run: the caller owns that, once per plant
    (solve_are_stabilizing, tuning's node certificates). Entry j of the
    returned list is the AreSolution of S[j], or the NoStabilizingSolution,
    not raised, that rules it out. Z+ is recovered as V U^-1 from the stable
    invariant subspace [U; V] of the Hamiltonian H = [[A^T, -S], [-Q, -A]];
    a member fails when H touches the imaginary axis, the subspace is
    degenerate, Z+ is not positive definite, its residual is too large, or
    the closed loop is not Hurwitz, tested in that order. Each step runs on
    the stack of the members still standing, except the sorted Schur form,
    which LAPACK computes one matrix at a time, and no step runs once none
    stands; a member's outcome is bit for bit the one it gets in a stack of
    its own.
    """
    k, n = S.shape[0], A.shape[0]
    H = np.empty((k, 2 * n, 2 * n))
    H[:, :n, :n] = A.T
    H[:, :n, n:] = -S
    H[:, n:, :n] = -Q
    H[:, n:, n:] = -A
    out = [None] * k
    # Decided before the Schur form, not read off it: on a spectrum this
    # close to the axis the sorted decomposition can itself fail
    # (LinAlgError: eigenvalues do not satisfy the sort condition).
    ev_re = np.linalg.eigvals(H).real
    on_axis = np.abs(ev_re).min(axis=-1) < IMAG_AXIS_TOL * frobenius_norms(H)
    alive, H, S = _drop(out, on_axis, lambda p: "Hamiltonian eigenvalue on the imaginary axis",
                        np.arange(k), H, S)
    if not alive.size:
        return out

    U, dims = _stable_schur(H)
    alive, U, S = _drop(out, dims != n, lambda p: (
        f"stable invariant subspace has dimension {dims[p]}, expected {n}"), alive, U, S)
    if not alive.size:
        return out
    U1, V1 = U[:, :n, :n], U[:, n:, :n]
    sv = np.linalg.svd(U1, compute_uv=False)
    alive, U1, V1, S = _drop(out, sv[:, -1] < 1e-12 * sv[:, 0],
                             lambda p: "subspace basis U is numerically singular",
                             alive, U1, V1, S)
    if not alive.size:
        return out
    Zplus = symmetrize(np.linalg.solve(U1.swapaxes(-1, -2), V1.swapaxes(-1, -2)).swapaxes(-1, -2))

    min_eig = np.linalg.eigvalsh(Zplus)[:, 0]
    alive, Zplus, S = _drop(out, min_eig <= definiteness_threshold(Zplus), lambda p: (
        f"Z+ not positive definite (min eig {min_eig[p]:.3g})"), alive, Zplus, S)
    if not alive.size:
        return out

    residual = frobenius_norms(Zplus @ A.T + A @ Zplus - Zplus @ S @ Zplus + Q)
    # float ** 2 is libm's pow: numpy's ** 2, a rounded product, differs in
    # the last bit on about one value in a thousand
    tol = np.array([ARE_TOL_SCALE * (1.0 + float(z) ** 2) for z in frobenius_norms(Zplus)])
    alive, Zplus, S, residual = _drop(out, residual > tol, lambda p: (
        f"residual {residual[p]:.3g} exceeds {tol[p]:.3g}"), alive, Zplus, S, residual)
    if not alive.size:
        return out

    abscissa = np.linalg.eigvals((A - Zplus @ S).swapaxes(-1, -2)).real.max(axis=-1)
    alive, Zplus, residual, abscissa = _drop(out, abscissa >= 0.0, lambda p: (
        f"closed loop not Hurwitz (abscissa {abscissa[p]:.3g})"), alive, Zplus, residual, abscissa)
    for j, Z, r, a in zip(alive, Zplus, residual, abscissa):
        out[j] = AreSolution(Zplus=Z, residual=float(r), closed_loop_spectral_abscissa=float(a))
    return out


def stable_are_solution(A: np.ndarray, Q: np.ndarray, S: np.ndarray) -> AreSolution:
    """Stabilizing solution Z+ of  Z A^T + A Z - Z S Z + Q = 0: the batch of
    one of stable_are_solutions, raising its NoStabilizingSolution."""
    sol = stable_are_solutions(A, Q, S[None])[0]
    if isinstance(sol, NoStabilizingSolution):
        raise sol
    return sol


def solve_are_stabilizing(
    A: np.ndarray, B: np.ndarray, S: np.ndarray
) -> AreSolution:
    """Stabilizing solution Z+ of  Z A^T + A Z - Z S Z + B B^T = 0.

    S may be indefinite. Raises NotStabilizable when (A, B) fails the PBH
    test, and otherwise solves through stable_are_solution.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    S = require_symmetric(S, "S")
    check_stabilizable(A, B)
    return stable_are_solution(A, B @ B.T, S)


def verify_prop1_limit(
    traj: GainTrajectory, are: AreSolution, enforce_precondition: bool = True
) -> Prop1Report:
    """Compare a gain trajectory against the ARE limit (Z+)^-1.

    The convergence statement assumes K(0) >= (Z+)^-1; by default a violated
    assumption raises PreconditionViolated. Pass enforce_precondition=False
    to measure the gap anyway and read the dominance flag off the report.
    """
    K_inf = are.gain_limit()
    k0_min = float(np.linalg.eigvalsh(traj.K[0] - K_inf)[0])
    dominates = k0_min >= -1e-10
    if enforce_precondition and not dominates:
        raise PreconditionViolated(
            f"K(0) - (Z+)^-1 has eigenvalue {k0_min:.3g} below -1e-10"
        )
    denom = float(np.linalg.norm(K_inf))
    gaps = np.linalg.norm(traj.K - K_inf[None, :, :], axis=(1, 2)) / denom
    increases = np.diff(gaps) > 0.0
    monotone_fraction = 1.0 - float(np.count_nonzero(increases)) / max(len(gaps) - 1, 1)
    last_increase = int(np.nonzero(increases)[0][-1]) + 1 if increases.any() else 0
    return Prop1Report(
        relative_gap_final=float(gaps[-1]),
        gap_initial=float(gaps[0]),
        monotone_fraction=monotone_fraction,
        nonincreasing_after=float(traj.t[last_increase]),
        k0_dominates=dominates,
        k0_min_eigenvalue=k0_min,
    )
