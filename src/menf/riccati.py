"""Differential and algebraic Riccati machinery for the per-node gains.

The information-form gain K of a node evolves by

    dK/dt = -K Q K + C^T R^-1 C + sum_j W^T U^-1 W - M^-1 - A^T K - K A

with K(0) = Xcal. The integrator is fixed-step classic RK4: runs are
bit-reproducible, the convergence-order check is meaningful, and the grid
matches the coupled simulation. K is never inverted here; downstream code
applies K^-1 through its Cholesky factor L (K^-1 = L^-T L^-1).

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


@dataclass
class RiccatiCoefficients:
    """Constant coefficients of one node's (or the stacked) gain equation."""

    A: np.ndarray
    Q: np.ndarray
    obs_info: np.ndarray   # C^T R^-1 C
    comm_info: np.ndarray  # sum_j W^T U^-1 W
    m_inv: np.ndarray      # M^-1 (PSD; zero disables the attenuation penalty)
    constant: np.ndarray = field(init=False)

    def __post_init__(self):
        self.constant = symmetrize(self.obs_info + self.comm_info - self.m_inv)

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

    @property
    def S(self) -> np.ndarray:
        """Quadratic coefficient of the associated ARE."""
        return self.constant


@dataclass
class GainState:
    """Gain matrix at one time instant."""

    K: np.ndarray
    t: float


@dataclass
class GainTrajectory:
    """Gain trajectory on a uniform grid: K[k] is the gain at t[k]."""

    t: np.ndarray
    K: np.ndarray  # (len(t), n, n)

    def at(self, k: int) -> GainState:
        return GainState(K=self.K[k], t=float(self.t[k]))

    def final(self) -> GainState:
        return self.at(len(self.t) - 1)


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
    """Right-hand side of the gain equation, symmetrized."""
    A = coeffs.A
    out = -K @ coeffs.Q @ K + coeffs.constant - A.T @ K - K @ A
    return symmetrize(out)


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

    Every accepted state is re-symmetrized and checked for positive
    definiteness; LostPositivity or NonFinite carry the failing time.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    dt = _check_uniform_grid(t_grid)
    K = require_spd(K0, "K0")
    out = np.empty((t_grid.size,) + K.shape)
    out[0] = K
    for k in range(t_grid.size - 1):
        k1 = riccati_rhs(K, coeffs)
        k2 = riccati_rhs(K + 0.5 * dt * k1, coeffs)
        k3 = riccati_rhs(K + 0.5 * dt * k2, coeffs)
        k4 = riccati_rhs(K + dt * k3, coeffs)
        K = symmetrize(K + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4))
        t_next = float(t_grid[k + 1])
        if not np.all(np.isfinite(K)):
            raise NonFinite(t_next)
        min_eig = float(np.linalg.eigvalsh(K)[0])
        if min_eig <= definiteness_threshold(K):
            raise LostPositivity(t_next, min_eig)
        out[k + 1] = K
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
