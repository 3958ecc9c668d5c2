"""Differential and algebraic Riccati machinery for the per-node gains.

The information-form gain K of a node evolves by

    dK/dt = S - K Q K - A^T K - K A,   S = C^T R^-1 C + sum_j W^T U^-1 W - M^-1

with K(0) = Xcal. This module owns that equation: riccati_rhs is its one
definition and gain_pass its one integrator, fixed-step classic RK4 over a
stack of gain equations, which both the coupled engine (sim.simulate_seeds,
all N nodes at once) and integrate_riccati (one gain) step chunk by chunk.
Runs are bit-reproducible, the convergence-order check is meaningful, and
the grid matches the coupled simulation. K is never inverted here;
downstream code applies K^-1 through its Cholesky factor L
(K^-1 = L^-T L^-1).

The associated ARE  Z A^T + A Z - Z S Z + B B^T = 0  with
S = C^T R^-1 C + [Delta]_ii - M^-1 (possibly indefinite) is solved for its
stabilizing solution Z+ from the stable invariant subspace of the
Hamiltonian  H = [[A^T, -S], [-B B^T, -A]]  via an ordered real Schur
decomposition. The binding contract is the residual check, not the route.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import schur

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
    require_spd,
    require_symmetric,
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
# (stage gains, and in the engine their Cholesky factors and inverses) add
# directly to a run's peak resident memory, while larger chunks save little
# more Python overhead.
CHUNK_BYTES = 128 * 1024


@dataclass
class RiccatiCoefficients:
    """Constant coefficients of a gain equation, or of a stack of them.

    For a stack, obs_info, comm_info and m_inv are (N, n, n) and A, Q are
    shared; S then holds one quadratic coefficient per gain.
    """

    A: np.ndarray
    Q: np.ndarray
    obs_info: np.ndarray   # C^T R^-1 C
    comm_info: np.ndarray  # sum_j W^T U^-1 W
    m_inv: np.ndarray      # M^-1 (PSD; zero disables the attenuation penalty)
    S: np.ndarray = field(init=False)  # quadratic coefficient of the associated ARE

    def __post_init__(self):
        self.S = symmetrize(self.obs_info + self.comm_info - self.m_inv)

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

    Not symmetrized: gain_pass re-symmetrizes every accepted step instead.
    """
    A = coeffs.A
    return coeffs.S - K @ coeffs.Q @ K - A.T @ K - K @ A


def chunk_steps(gains_shape) -> int:
    """Steps per gain_pass chunk for a gain stack of shape (N, n, n)."""
    return max(1, CHUNK_BYTES // (4 * 8 * int(np.prod(gains_shape))))


def gain_pass(
    coeffs: RiccatiCoefficients,
    Ks: np.ndarray,
    k0: int,
    k1: int,
    dt: float,
    t_grid: np.ndarray,
):
    """RK4 steps k0..k1-1 of a stack of gain equations from the gains Ks[:, k0].

    Ks is (N, len(t_grid), n, n); each accepted gain is re-symmetrized and
    written to Ks[:, k + 1]. Returns the stage gains, shape
    (steps, 4, N, n, n) in step order; the smallest eigenvalue of the finite
    accepted gains (None when there are none), from one batched eigvalsh;
    and the first failure at a grid point as (step offset, 4, error), or
    None. The 4 orders it after the four stages of its step. The error is
    NonFinite when a gain turned non-finite, which ends the pass after that
    step, or LostPositivity when a finite gain at an earlier grid point is
    not positive definite.
    """
    h2, h6 = 0.5 * dt, dt / 6.0
    K = Ks[:, k0]
    stages = np.empty((k1 - k0, 4) + K.shape)
    done, failure = k1 - k0, None
    for k in range(k0, k1):
        st = stages[k - k0]
        st[0] = K
        dK1 = riccati_rhs(K, coeffs)
        st[1] = K + h2 * dK1
        dK2 = riccati_rhs(st[1], coeffs)
        st[2] = K + h2 * dK2
        dK3 = riccati_rhs(st[2], coeffs)
        st[3] = K + dt * dK3
        dK4 = riccati_rhs(st[3], coeffs)
        K = K + h6 * (dK1 + 2.0 * dK2 + 2.0 * dK3 + dK4)
        K = 0.5 * (K + np.transpose(K, (0, 2, 1)))
        Ks[:, k + 1] = K
        if not np.isfinite(K).all():
            done, failure = k - k0, (k - k0, 4, NonFinite(float(t_grid[k + 1])))
            stages = stages[:done + 1]
            break
    grid = Ks[:, k0 + 1:k0 + 1 + done]
    min_eigs = np.linalg.eigvalsh(grid)[..., 0]
    lost = np.flatnonzero((min_eigs <= definiteness_threshold(grid)).any(axis=0))
    if lost.size:
        c = int(lost[0])
        lost_at = LostPositivity(float(t_grid[k0 + c + 1]), float(min_eigs[:, c].min()))
        failure = (c, 4, lost_at)
    return stages, (float(min_eigs.min()) if done else None), failure


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

    Steps it through gain_pass as a one-gain stack, in chunks of
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
    chunk = chunk_steps((1,) + K.shape)
    for k0 in range(0, steps, chunk):
        _, _, failure = gain_pass(coeffs, out[None], k0, min(k0 + chunk, steps), dt, t_grid)
        if failure is not None:
            raise failure[2]
    return GainTrajectory(t=t_grid.copy(), K=out)


def stacked_coefficients(
    net: Network, gm: GlobalMatrices, m_inv_blocks
) -> RiccatiCoefficients:
    """Coefficients of the stacked nN x nN gain equation."""
    N = net.N
    eye_n = np.eye(N)
    obs = gm.Cstack.T @ np.linalg.solve(gm.Rstack, gm.Cstack)
    m_inv_blocks = list(m_inv_blocks)
    if len(m_inv_blocks) != N:
        raise DimensionMismatch(f"expected {N} M^-1 blocks, got {len(m_inv_blocks)}")
    m_inv = np.zeros((net.n * N, net.n * N))
    for i, blk in enumerate(m_inv_blocks):
        m_inv[net.n * i:net.n * (i + 1), net.n * i:net.n * (i + 1)] = blk
    return RiccatiCoefficients(
        A=np.kron(eye_n, net.plant.A),
        Q=np.kron(eye_n, net.plant.Q),
        obs_info=symmetrize(obs),
        comm_info=gm.Delta,
        m_inv=m_inv,
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


def solve_are_stabilizing(
    A: np.ndarray, B: np.ndarray, S: np.ndarray
) -> AreSolution:
    """Stabilizing solution Z+ of  Z A^T + A Z - Z S Z + B B^T = 0.

    S may be indefinite. Z+ is recovered as V U^-1 from the stable invariant
    subspace [U; V] of the Hamiltonian; NoStabilizingSolution is raised when
    the Hamiltonian touches the imaginary axis, the subspace is degenerate,
    Z+ is not positive definite, or the closed loop is not Hurwitz.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    S = require_symmetric(S, "S")
    n = A.shape[0]
    check_stabilizable(A, B)

    Q = B @ B.T
    H = np.block([[A.T, -S], [-Q, -A]])
    ev = np.linalg.eigvals(H)
    axis_tol = IMAG_AXIS_TOL * float(np.linalg.norm(H))
    if np.min(np.abs(ev.real)) < axis_tol:
        raise NoStabilizingSolution("Hamiltonian eigenvalue on the imaginary axis")

    _, Uo, sdim = schur(H, output="real", sort=lambda re, im: re < 0.0)
    if sdim != n:
        raise NoStabilizingSolution(
            f"stable invariant subspace has dimension {sdim}, expected {n}"
        )
    U1 = Uo[:n, :n]
    V1 = Uo[n:, :n]
    sv = np.linalg.svd(U1, compute_uv=False)
    if sv[-1] < 1e-12 * sv[0]:
        raise NoStabilizingSolution("subspace basis U is numerically singular")
    Zplus = symmetrize(np.linalg.solve(U1.T, V1.T).T)

    min_eig = float(np.linalg.eigvalsh(Zplus)[0])
    if min_eig <= definiteness_threshold(Zplus):
        raise NoStabilizingSolution(f"Z+ not positive definite (min eig {min_eig:.3g})")

    residual = float(np.linalg.norm(Zplus @ A.T + A @ Zplus - Zplus @ S @ Zplus + Q))
    tol = ARE_TOL_SCALE * (1.0 + float(np.linalg.norm(Zplus)) ** 2)
    if residual > tol:
        raise NoStabilizingSolution(f"residual {residual:.3g} exceeds {tol:.3g}")

    abscissa = float(np.max(np.linalg.eigvals((A - Zplus @ S).T).real))
    if abscissa >= 0.0:
        raise NoStabilizingSolution(f"closed loop not Hurwitz (abscissa {abscissa:.3g})")
    return AreSolution(
        Zplus=Zplus,
        residual=residual,
        closed_loop_spectral_abscissa=abscissa,
    )


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
