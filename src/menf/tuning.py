"""Network weighting design: the block-diagonal M and the certificate checks.

Convergence of the filter network needs two things at once: the stacked
condition  blkdiag(M_i^-1) > P - Ltilde - Ltilde^T + DeltaTilde  (checked by
check_minv) and, per node, a feasible strict Riccati/LMI inequality (checked
by node_feasible through the stabilizing ARE). The two fight each other --
the stacked condition pushes M^-1 up, the node inequalities cap it -- and
with an unstable plant the caps at weakly-sensed nodes sit *below* the
uniform level the stacked condition demands. tune_scalar therefore searches
a per-node scalar profile M_i^-1 = mu_i I: per-node feasibility caps are
bisected first (with a closed-loop decay-rate floor, relaxed over a ladder
if needed), then one shared level t is bisected so that the profile
mu_i = min(t, cap_i) clears the stacked condition with half the maximum
achievable margin. The search degenerates to a single uniform scalar
whenever no cap binds. Every returned profile is re-verified by
verify_tuning, an independent evaluation of both conditions.

Strictness: at an exact ARE solution the node LMI block has lambda_max = 0,
so the strict witness X_i is taken from the ARE with constant term inflated
to B B^T + theta I, which shifts the block to -theta X_i^2 < 0.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    DimensionMismatch,
    Infeasible,
    NoStabilizingSolution,
    NotPositiveDefinite,
)
from .linalg import block_diag, require_psd, require_spd, require_symmetric, symmetrize
from .model import GlobalMatrices, Network, NodeModel, PlantModel, assemble_global
from .riccati import AreSolution, solve_are_stabilizing

# Required strictness of the node LMI witness (acceptance-level contract).
LMI_STRICTNESS = -1e-10
# Relative inflation ladder for the strict-witness ARE solve.
WITNESS_THETAS = (1e-4, 1e-6, 1e-8)
# Relative bisection tolerance on scalar levels.
BISECT_RTOL = 1e-6
# Closed-loop decay-rate floors tried in order (negated spectral abscissa).
DECAY_FLOORS = (0.5, 0.35, 0.25, 0.15, 0.1, 0.05, 0.0)
# Upper end of the per-node cap bisection on mu_i.
MU_HI = 1e4


@dataclass
class NodeCertificate:
    """Feasibility evidence for one node at a fixed M_i^-1."""

    feasible: bool
    node_id: int
    m_inv: np.ndarray
    are: AreSolution | None = None
    lmi_witness: np.ndarray | None = None
    lmi_margin: float | None = None
    reason: str = ""


@dataclass
class TuningResult:
    """Certified weighting profile: M blocks plus both verified margins."""

    M_blocks: tuple[np.ndarray, ...]
    m_inv_blocks: tuple[np.ndarray, ...]
    P: np.ndarray
    minv_margin: float
    node_certificates: tuple[NodeCertificate, ...]
    mu_profile: tuple[float, ...] | None = None
    mu_lo_uniform: float | None = None
    decay_floor: float | None = None


def laplacian_P(net: Network, P0: np.ndarray, ridge: float = 0.0) -> np.ndarray:
    """Disagreement weighting (1/2)(L + L_rev) (x) P0 + ridge I.

    L is the in-neighbor Laplacian of the network graph (row i: degree |N_i|
    on the diagonal, -1 at columns j in N_i); L_rev is the Laplacian of the
    edge-reversed graph. The sign pattern matches Ltilde's.
    """
    P0 = require_psd(P0, "P0")
    if ridge < 0:
        raise NotPositiveDefinite("ridge I", ridge)
    N = net.N
    adj = np.zeros((N, N))
    for (i, j) in net.edges:
        adj[i - 1, j - 1] = 1.0
    L = np.diag(adj.sum(axis=1)) - adj
    L_rev = np.diag(adj.T.sum(axis=1)) - adj.T
    P = np.kron(0.5 * (L + L_rev), P0) + ridge * np.eye(N * P0.shape[0])
    return symmetrize(P)


def _minv_quantity(gm: GlobalMatrices, m_inv_stack: np.ndarray, P: np.ndarray) -> float:
    gap = m_inv_stack - P + gm.Ltilde + gm.Ltilde.T - gm.DeltaTilde
    return float(np.linalg.eigvalsh(symmetrize(gap))[0])


def check_minv(gm: GlobalMatrices, M_blocks, P: np.ndarray) -> float:
    """Smallest eigenvalue of blkdiag(M_i^-1) - P + Ltilde + Ltilde^T - DeltaTilde.

    Positive iff the stacked condition holds strictly. Each M_i must be
    symmetric positive definite.
    """
    P = require_symmetric(P, "P")
    inv_blocks = []
    for i, M in enumerate(M_blocks, start=1):
        M = require_spd(M, f"M_{i}")
        inv_blocks.append(symmetrize(np.linalg.inv(M)))
    return _minv_quantity(gm, block_diag(inv_blocks), P)


def node_feasible(
    plant: PlantModel,
    node: NodeModel,
    delta_ii: np.ndarray,
    m_inv: np.ndarray,
) -> NodeCertificate:
    """Decide the per-node strict LMI through its Riccati equivalence.

    Solves the ARE with S = C^T R^-1 C + Delta_ii - M^-1 for the
    gain-limit certificate, then extracts a strict witness X from the
    theta-inflated ARE and evaluates the assembled LMI block at it,
    requiring lambda_max < -1e-10. Raises NotStabilizable when (A, B) fails
    the PBH test; every other failure is reported as an infeasible
    certificate with a reason.
    """
    m_inv = require_psd(m_inv, "M_inv")
    S = symmetrize(node.CtRinvC + np.asarray(delta_ii) - m_inv)
    A, B = plant.A, plant.B
    try:
        are = solve_are_stabilizing(A, B, S)
    except NoStabilizingSolution as exc:
        return NodeCertificate(
            feasible=False, node_id=-1, m_inv=m_inv, reason=str(exc)
        )

    q_norm = 1.0 + float(np.linalg.norm(plant.Q))
    witness = None
    margin = None
    for theta_rel in WITNESS_THETAS:
        theta = theta_rel * q_norm
        try:
            B_theta = np.linalg.cholesky(plant.Q + theta * np.eye(plant.n))
            are_theta = solve_are_stabilizing(A, B_theta, S)
        except NoStabilizingSolution:
            continue
        X = symmetrize(np.linalg.inv(are_theta.Zplus))
        core = symmetrize(
            A.T @ X + X @ A - node.CtRinvC - np.asarray(delta_ii) + m_inv
        )
        block = np.block([[core, X @ B], [B.T @ X, -np.eye(plant.q)]])
        lam = float(np.linalg.eigvalsh(symmetrize(block))[-1])
        if lam < LMI_STRICTNESS:
            witness, margin = X, lam
            break
    if witness is None:
        return NodeCertificate(
            feasible=False,
            node_id=-1,
            m_inv=m_inv,
            are=are,
            reason="no strict LMI witness below the -1e-10 margin",
        )
    return NodeCertificate(
        feasible=True,
        node_id=-1,
        m_inv=m_inv,
        are=are,
        lmi_witness=witness,
        lmi_margin=margin,
    )


def _node_cap(net: Network, node_id: int, decay_floor: float) -> float | None:
    """Largest mu with a feasible node certificate whose closed loop decays
    at rate >= decay_floor; None when even mu = 0 is infeasible."""
    plant = net.plant
    node = net.node(node_id)
    delta_ii = net.delta_block(node_id)

    def ok(mu: float) -> bool:
        cert = node_feasible(plant, node, delta_ii, mu * np.eye(plant.n))
        return cert.feasible and (
            cert.are.closed_loop_spectral_abscissa <= -decay_floor
        )

    if not ok(0.0):
        return None
    if ok(MU_HI):
        return MU_HI
    lo, hi = 0.0, MU_HI
    while hi - lo > BISECT_RTOL * (1.0 + hi):
        mid = 0.5 * (lo + hi)
        if ok(mid):
            lo = mid
        else:
            hi = mid
    return lo


def tune_scalar(net: Network, P: np.ndarray) -> TuningResult:
    """Search a per-node scalar profile M_i^-1 = mu_i I with certificates.

    Per-node caps are bisected at the strongest decay floor for which the
    stacked condition is attainable; the shared level t is then bisected to
    the smallest value reaching half the maximum margin, and
    mu_i = min(t, cap_i). Raises Infeasible (with the uniform-scalar lower
    bound mu_lo as diagnosis) when no floor admits a profile or the chosen
    profile fails verify_tuning.
    """
    P = require_symmetric(P, "P")
    gm = assemble_global(net, None)
    n, N = net.n, net.N
    if P.shape != (n * N, n * N):
        raise DimensionMismatch(f"P must be {n * N}x{n * N}, got {P.shape}")

    mu_lo_uniform = float(
        np.linalg.eigvalsh(symmetrize(P - gm.Ltilde - gm.Ltilde.T + gm.DeltaTilde))[-1]
    )

    def profile_margin(mu_vec: np.ndarray) -> float:
        stack = block_diag([mu * np.eye(n) for mu in mu_vec])
        return _minv_quantity(gm, stack, P)

    chosen = None
    last_diag = ""
    for floor in DECAY_FLOORS:
        caps = []
        for i in net.node_ids():
            cap = _node_cap(net, i, floor)
            if cap is None:
                raise Infeasible(
                    mu_lo_uniform,
                    MU_HI,
                    f"node {i} has no feasible attenuation level at any M^-1 >= 0",
                )
            caps.append(cap)
        caps = np.asarray(caps)
        max_margin = profile_margin(caps)
        if max_margin > 0.0:
            chosen = (floor, caps, max_margin)
            break
        last_diag = (
            f"caps {np.round(caps, 4).tolist()} leave margin {max_margin:.4g} <= 0"
        )
    if chosen is None:
        raise Infeasible(
            mu_lo_uniform, MU_HI, f"stacked condition unattainable: {last_diag}"
        )
    floor, caps, max_margin = chosen

    # Smallest shared level reaching half the best margin (monotone in t).
    target = 0.5 * max_margin
    t_floor = 1e-9 * (1.0 + abs(mu_lo_uniform))
    lo, hi = t_floor, float(caps.max())
    if profile_margin(np.minimum(lo, caps)) >= target:
        hi = lo
    while hi - lo > BISECT_RTOL * (1.0 + hi):
        mid = 0.5 * (lo + hi)
        if profile_margin(np.minimum(mid, caps)) >= target:
            hi = mid
        else:
            lo = mid
    mu_profile = np.minimum(hi, caps)

    try:
        result = verify_tuning(net, P, [mu * np.eye(n) for mu in mu_profile])
    except Infeasible as exc:
        raise Infeasible(
            mu_lo_uniform, MU_HI, f"re-verification failed: {exc.detail}"
        ) from exc
    return replace(
        result,
        mu_profile=tuple(float(m) for m in mu_profile),
        mu_lo_uniform=mu_lo_uniform,
        decay_floor=floor,
    )


def verify_tuning(net: Network, P: np.ndarray, m_inv_blocks) -> TuningResult:
    """Re-verify externally supplied M_i^-1 blocks against both conditions.

    Accepts any positive definite blocks (e.g. from an external SDP solver)
    and returns the same certificate structure tune_scalar produces; raises
    Infeasible when either condition fails.
    """
    m_inv_blocks = tuple(
        require_spd(b, f"M_inv_{i}") for i, b in enumerate(m_inv_blocks, start=1)
    )
    M_blocks = tuple(symmetrize(np.linalg.inv(b)) for b in m_inv_blocks)
    minv_margin = check_minv(assemble_global(net, M_blocks), M_blocks, P)
    if minv_margin <= 0.0:
        raise Infeasible(float("nan"), float("nan"), f"margin {minv_margin:.4g} <= 0")
    certificates = []
    for i in net.node_ids():
        cert = node_feasible(
            net.plant, net.node(i), net.delta_block(i), m_inv_blocks[i - 1]
        )
        cert.node_id = i
        if not cert.feasible:
            raise Infeasible(
                float("nan"), float("nan"), f"node {i} infeasible: {cert.reason}"
            )
        certificates.append(cert)
    return TuningResult(
        M_blocks=M_blocks,
        m_inv_blocks=m_inv_blocks,
        P=require_symmetric(P, "P"),
        minv_margin=minv_margin,
        node_certificates=tuple(certificates),
    )
