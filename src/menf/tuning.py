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
whenever no cap binds. tune_scalar and verify_tuning return through one
certification of both conditions: the stacked margin evaluated on the
M_i^-1 blocks themselves, the ones returned and written out, and each
node's certificate at decay floor 0.

Strictness: at an exact ARE solution the node LMI block has lambda_max = 0,
so the strict witness X_i is taken from the ARE with constant term inflated
to B B^T + theta I, which shifts the block to -theta X_i^2 < 0.

Cost: a tune_scalar or verify_tuning call assembles the stacked matrices
once and builds the node inequalities once, as one _NodeProblems that every
decay-floor rung and the final certification share. It runs the PBH test of
(A, B) once (the theta-inflated pencils need none, their B_theta being
nonsingular) and holds the plant's constant terms and each node's own
terms. All of a plant's node problems are certified together by
_certify_nodes: one batched Hamiltonian solve for every node, then one
batched witness solve per theta rung for the nodes that meet the decay
floor. The caps are bisected in lockstep, every node on its own bracket, so
a floor rung costs one such call per round rather than one per node and
step, and each node's cap is the one it gets alone. node_feasible, the cap
bisection and the certification all certify through _certify_nodes.

Both searches, the caps and the shared level, are replays of the plain
midpoint bisection by one routine, _replay_bisections. A midpoint at or
below a probe known to pass, or at or above one known to fail, is decided by
monotonicity without a certificate; the other probes come from a secant on
a value each probe already returns (abscissa^2 - floor^2 for a cap while
its ARE exists, margin - target for the level), safeguarded by the pending
midpoint. Every decision is the plain bisection's own, so every cap and the
level are bit for bit the plain bisection's, from fewer certificates: on
Chua a tune certifies 85 node problems and evaluates 10 stacked margins,
where the plain bisections took 162 and 24. TuningResult records both
counts.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import isfinite

import numpy as np

from .errors import (
    DimensionMismatch,
    Infeasible,
    NoStabilizingSolution,
    NotPositiveDefinite,
)
from .linalg import block_diag, require_psd, require_spd, require_symmetric, symmetrize
from .model import GlobalMatrices, Network, NodeModel, PlantModel, assemble_global
from .riccati import AreSolution, check_stabilizable, stable_are_solutions

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
    # what the search cost: node problems certified, stacked margins evaluated
    certificates_made: int | None = None
    margins_evaluated: int | None = None


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


def _require_P(gm: GlobalMatrices, P: np.ndarray) -> np.ndarray:
    """P symmetrized, after checking that it is symmetric and nN x nN, nN
    being the order of gm's matrices."""
    P = require_symmetric(P, "P")
    nN = gm.Ltilde.shape[0]
    if P.shape != (nN, nN):
        raise DimensionMismatch(f"P must be {nN}x{nN}, got {P.shape}")
    return P


def _stacked_margin(gm: GlobalMatrices, P: np.ndarray, m_inv_blocks) -> float:
    """Smallest eigenvalue of blkdiag(M_i^-1) - P + Ltilde + Ltilde^T - DeltaTilde.

    Positive iff the stacked condition holds strictly. P is as _require_P
    returns it; the blocks must be square, of one order n, and nN / n of
    them, or DimensionMismatch is raised before any margin is evaluated.
    """
    nN = P.shape[0]
    N = len(m_inv_blocks)
    n = nN // N if N else 0
    shapes = {np.shape(b) for b in m_inv_blocks}
    if N * n != nN or shapes != {(n, n)}:
        raise DimensionMismatch(
            f"M^-1 must be square blocks of one order filling {nN}x{nN}, "
            f"got {N} blocks of shapes {sorted(shapes)}"
        )
    gap = block_diag(m_inv_blocks) - P + gm.Ltilde + gm.Ltilde.T - gm.DeltaTilde
    return float(np.linalg.eigvalsh(symmetrize(gap))[0])


def check_minv(gm: GlobalMatrices, M_blocks, P: np.ndarray) -> float:
    """Smallest eigenvalue of blkdiag(M_i^-1) - P + Ltilde + Ltilde^T - DeltaTilde.

    Positive iff the stacked condition holds strictly. Each M_i must be
    symmetric positive definite, P nN x nN and the blocks N of n x n, or
    DimensionMismatch is raised.
    """
    inv_blocks = []
    for i, M in enumerate(M_blocks, start=1):
        M = require_spd(M, f"M_{i}")
        inv_blocks.append(symmetrize(np.linalg.inv(M)))
    return _stacked_margin(gm, _require_P(gm, P), inv_blocks)


class _NodeProblems:
    """The strict Riccati/LMI inequalities of a plant's nodes, less M_i^-1.

    Holds what every certificate shares, built once: the plant's A, B, its
    constant term B B^T and the witness constant terms B_theta B_theta^T,
    B_theta = chol(Q + theta I), one per theta rung; and each node's own
    C^T R^-1 C and Delta_ii, stacked node by node. Building it runs the PBH
    test of (A, B) once and raises NotStabilizable when it fails. The witness
    terms need no PBH test of their own: B_theta is nonsingular, so every
    pencil [A - lambda I, B_theta] has full rank.
    """

    def __init__(self, plant: PlantModel, nodes, delta_blocks):
        self.A, self.B = plant.A, plant.B
        check_stabilizable(self.A, self.B)
        self.Q = self.B @ self.B.T  # not plant.Q, whose symmetrized bits differ
        q_norm = 1.0 + float(np.linalg.norm(plant.Q))
        self.witness_Qs = []
        for theta_rel in WITNESS_THETAS:
            B_theta = np.linalg.cholesky(plant.Q + theta_rel * q_norm * np.eye(plant.n))
            self.witness_Qs.append(B_theta @ B_theta.T)
        self.CtRinvC = np.stack([node.CtRinvC for node in nodes])
        self.delta_ii = np.stack(list(delta_blocks))
        self.info = self.CtRinvC + self.delta_ii
        self.certified = 0  # node problems certified so far


def _certify_nodes(problems, nodes, m_invs, decay_floor: float) -> list[NodeCertificate]:
    """The certificate of node nodes[j] (0-based) of the problems at its own
    symmetric PSD M_i^-1 m_invs[j], feasible when its closed loop decays at
    rate >= decay_floor and its LMI has a strict witness.

    One batched Hamiltonian solve takes every node. A node whose ARE fails,
    or whose closed-loop abscissa is above -decay_floor, is infeasible with
    that ARE and gets no witness solve. The others solve the witness ARE one
    theta rung at a time, each rung one batch of the nodes still without a
    strict witness. Every certificate is bit for bit the one its node gets
    alone.
    """
    A, B = problems.A, problems.B
    n, q = B.shape
    nodes = np.asarray(nodes)
    problems.certified += len(nodes)
    m_inv = np.stack(m_invs)
    S = symmetrize(problems.info[nodes] - m_inv)
    certs = [None] * len(nodes)
    ares = stable_are_solutions(A, problems.Q, S)
    pending = []
    for j, are in enumerate(ares):
        if isinstance(are, NoStabilizingSolution):
            certs[j] = NodeCertificate(
                feasible=False, node_id=-1, m_inv=m_invs[j], reason=str(are)
            )
        elif are.closed_loop_spectral_abscissa > -decay_floor:
            certs[j] = NodeCertificate(
                feasible=False,
                node_id=-1,
                m_inv=m_invs[j],
                are=are,
                reason=f"closed loop decays slower than the floor {decay_floor:g}",
            )
        else:
            pending.append(j)

    for Q_theta in problems.witness_Qs:
        if not pending:
            break
        solved = [
            (j, sol)
            for j, sol in zip(pending, stable_are_solutions(A, Q_theta, S[pending]))
            if isinstance(sol, AreSolution)
        ]
        if not solved:
            continue
        idx = [j for j, _ in solved]
        X = symmetrize(np.linalg.inv(np.stack([sol.Zplus for _, sol in solved])))
        block = np.empty((len(idx), n + q, n + q))
        # C^T R^-1 C and Delta_ii one at a time: grouping them changes bits
        block[:, :n, :n] = symmetrize(
            A.T @ X + X @ A
            - problems.CtRinvC[nodes[idx]]
            - problems.delta_ii[nodes[idx]]
            + m_inv[idx]
        )
        block[:, :n, n:] = X @ B
        block[:, n:, :n] = B.T @ X
        block[:, n:, n:] = -np.eye(q)
        lam = np.linalg.eigvalsh(symmetrize(block))[:, -1]
        for j, X_j, lam_j in zip(idx, X, lam):
            if lam_j < LMI_STRICTNESS:
                certs[j] = NodeCertificate(
                    feasible=True,
                    node_id=-1,
                    m_inv=m_invs[j],
                    are=ares[j],
                    lmi_witness=X_j,
                    lmi_margin=float(lam_j),
                )
        pending = [j for j in pending if certs[j] is None]
    for j in pending:
        certs[j] = NodeCertificate(
            feasible=False,
            node_id=-1,
            m_inv=m_invs[j],
            are=ares[j],
            reason="no strict LMI witness below the -1e-10 margin",
        )
    return certs


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
    requiring lambda_max < -1e-10. This is _certify_nodes on the node's one
    problem at decay floor 0, which the ARE's Hurwitz check already implies;
    the PBH test runs once, on (A, B), and raises NotStabilizable when it
    fails. Every other failure is reported as an infeasible certificate with
    a reason.
    """
    m_inv = require_psd(m_inv, "M_inv")
    return _certify_nodes(_NodeProblems(plant, [node], [delta_ii]), [0], [m_inv], 0.0)[0]


def _walk(lo: float, hi: float, below: float, above: float):
    """The plain bisection of [lo, hi] walked while its midpoints are decided:
    a midpoint at or below `below` lies in the lower part, one at or above
    `above` in the upper part. Returns the bracket and the first midpoint
    neither decides, None once hi - lo <= BISECT_RTOL (1 + hi)."""
    while hi - lo > BISECT_RTOL * (1.0 + hi):
        mid = 0.5 * (lo + hi)
        if mid <= below:
            lo = mid
        elif mid >= above:
            hi = mid
        else:
            return lo, hi, mid
    return lo, hi, None


class _Bisection:
    """One plain bisection of [lo, hi], replayed from fewer probes.

    The plain bisection tests midpoints 0.5 (lo + hi), moving lo up to a
    midpoint in the lower part of a monotone test and hi down to one in the
    upper part, until hi - lo <= BISECT_RTOL (1 + hi). The replay takes the
    same path: a midpoint at or below a probe known to lie in the lower part,
    or at or above one known to lie in the upper part, is decided by
    monotonicity, so each decision is the plain bisection's own. A midpoint
    neither decides needs a probe. The probe comes from a secant on the
    values the probes return: r is the root of the line through the last two
    probes that returned one, when it falls strictly between the nearest
    known points. The probe is the end of the bracket the plain bisection
    would close on were its boundary at r, on the pending midpoint's side of
    r, so a probe on each side of an accurate r decides every midpoint left.
    With no such root, or after two secant probes in a row land on the side
    they were not predicted on, the probe is the pending midpoint itself, so
    every third probe at the latest decides a midpoint.
    """

    __slots__ = ("lo", "hi", "below", "above", "points", "expect", "missed")

    def __init__(self, lo: float, hi: float, lo_value: float, hi_value: float):
        self.lo, self.hi = lo, hi
        self.below, self.above = lo, hi  # the nearest probes on either side
        self.points = [(x, v) for x, v in ((lo, lo_value), (hi, hi_value)) if isfinite(v)]
        self.expect = None  # whether a secant probe was predicted lower
        self.missed = 0  # secant probes in a row that landed on the other side

    def probe(self) -> float | None:
        """The next point to test, or None once the bisection has closed."""
        self.lo, self.hi, mid = _walk(self.lo, self.hi, self.below, self.above)
        root = None if mid is None or self.missed >= 2 else self._secant_root()
        if root is None:
            self.expect = None
            return mid
        lo, hi, _ = _walk(self.lo, self.hi, root, root)
        self.expect = mid <= root
        return lo if self.expect else hi

    def _secant_root(self) -> float | None:
        if len(self.points) < 2:
            return None
        (x0, v0), (x1, v1) = self.points
        if v0 == v1:
            return None
        root = x1 - v1 * (x1 - x0) / (v1 - v0)
        return root if self.below < root < self.above else None

    def record(self, x: float, lower: bool, value: float) -> None:
        """The outcome of the probe at x: whether it lies in the lower part,
        and its value, NaN when it has none."""
        if lower:
            self.below = x
        else:
            self.above = x
        self.missed = self.missed + 1 if self.expect is not None and self.expect != lower else 0
        if isfinite(value):
            self.points = [self.points[-1], (x, value)] if self.points else [(x, value)]


def _replay_bisections(lo, hi, lo_values, hi_values, test):
    """The brackets (lo, hi) the plain bisections of [lo[k], hi[k]] close
    on, bit for bit, each replayed by a _Bisection.

    test(ks, xs) -> (lower, values) tests the points xs of the searches ks:
    whether each lies in the lower part of its search's bracket, and a value
    that changes sign near the boundary, NaN where the test has none.
    lo_values and hi_values are the values at the ends. The searches run in
    lockstep: each round is one test of every search still open.
    """
    searches = [_Bisection(*ends) for ends in zip(lo, hi, lo_values, hi_values)]
    while True:
        probes = [(k, x) for k, x in enumerate(s.probe() for s in searches) if x is not None]
        if not probes:
            return [s.lo for s in searches], [s.hi for s in searches]
        ks, xs = (np.array(column) for column in zip(*probes))
        lower, values = test(ks, xs)
        for k, x, low, value in zip(ks, xs, lower, values):
            searches[k].record(float(x), bool(low), float(value))


def _node_caps(problems, decay_floor: float) -> list[float | None]:
    """Each node's largest mu with a feasible certificate whose closed loop
    decays at rate >= decay_floor; None for a node infeasible even at mu = 0.

    Every node bisects on its own bracket: probes at 0 and MU_HI, then the
    midpoints of [0, MU_HI] until hi - lo <= BISECT_RTOL (1 + hi), replayed
    by _replay_bisections on the value abscissa^2 - decay_floor^2 while the
    node's ARE exists (the abscissa of the closed loop goes to 0 as the ARE
    ceases to exist, like a square root). The nodes still bisecting are
    certified together, one _certify_nodes call per round, so each node's
    cap is the one the plain bisection gives it alone.
    """
    eye = np.eye(problems.A.shape[0])

    def certify(nodes: np.ndarray, mus: np.ndarray):
        if not nodes.size:
            return np.zeros(0, dtype=bool), np.zeros(0)
        certs = _certify_nodes(problems, nodes, mus[:, None, None] * eye, decay_floor)
        values = [
            c.are.closed_loop_spectral_abscissa**2 - decay_floor**2 if c.are else np.nan
            for c in certs
        ]
        return np.array([c.feasible for c in certs], dtype=bool), np.array(values)

    caps = [None] * len(problems.info)
    nodes = np.arange(len(problems.info))
    ok, lo_values = certify(nodes, np.zeros(nodes.size))
    nodes, lo_values = nodes[ok], lo_values[ok]
    top, hi_values = certify(nodes, np.full(nodes.size, MU_HI))
    for i in nodes[top]:
        caps[i] = MU_HI
    nodes, lo_values, hi_values = nodes[~top], lo_values[~top], hi_values[~top]
    lo, _ = _replay_bisections(
        np.zeros(nodes.size),
        np.full(nodes.size, MU_HI),
        lo_values,
        hi_values,
        lambda ks, mus: certify(nodes[ks], mus),
    )
    for i, cap in zip(nodes, lo):
        caps[i] = float(cap)
    return caps


def _node_problems(net: Network) -> _NodeProblems:
    return _NodeProblems(net.plant, net.nodes, [net.delta_block(i) for i in net.node_ids()])


def _certify(gm: GlobalMatrices, problems, P: np.ndarray, m_inv_blocks) -> TuningResult:
    """The one certification of a profile: the stacked margin at the blocks
    M_i^-1 themselves, then each node's problem at decay floor 0. Each block
    must be symmetric positive definite, one per node; raises Infeasible,
    naming the condition, when either fails."""
    m_inv_blocks = tuple(
        require_spd(b, f"M_inv_{i}") for i, b in enumerate(m_inv_blocks, start=1)
    )
    N = len(problems.info)
    if len(m_inv_blocks) != N:
        raise DimensionMismatch(f"expected {N} M^-1 blocks, got {len(m_inv_blocks)}")
    P = _require_P(gm, P)
    minv_margin = _stacked_margin(gm, P, m_inv_blocks)
    if minv_margin <= 0.0:
        raise Infeasible(float("nan"), float("nan"), f"margin {minv_margin:.4g} <= 0")
    certificates = _certify_nodes(problems, range(N), m_inv_blocks, 0.0)
    for i, cert in enumerate(certificates, start=1):
        cert.node_id = i
        if not cert.feasible:
            raise Infeasible(
                float("nan"), float("nan"), f"node {i} infeasible: {cert.reason}"
            )
    return TuningResult(
        M_blocks=tuple(symmetrize(np.linalg.inv(b)) for b in m_inv_blocks),
        m_inv_blocks=m_inv_blocks,
        P=P,
        minv_margin=minv_margin,
        node_certificates=tuple(certificates),
    )


def tune_scalar(net: Network, P: np.ndarray) -> TuningResult:
    """Search a per-node scalar profile M_i^-1 = mu_i I with certificates.

    Per-node caps are bisected at the strongest decay floor for which the
    stacked condition is attainable; the shared level t is then bisected to
    the smallest value reaching half the maximum margin, and
    mu_i = min(t, cap_i). Both bisections are replayed by
    _replay_bisections, so each ends where the plain midpoint bisection
    ends, bit for bit. The result records the floor and what the search
    cost: the node problems certified and the stacked margins evaluated,
    the certification's included. Raises Infeasible (with the
    uniform-scalar lower bound mu_lo as diagnosis) when no floor admits a
    profile or the chosen profile fails its certification.
    """
    gm = assemble_global(net)
    P = _require_P(gm, P)
    eye = np.eye(net.n)

    mu_lo_uniform = float(
        np.linalg.eigvalsh(symmetrize(P - gm.Ltilde - gm.Ltilde.T + gm.DeltaTilde))[-1]
    )

    margins = 0

    def profile_margin(mu_vec: np.ndarray) -> float:
        nonlocal margins
        margins += 1
        return _stacked_margin(gm, P, mu_vec[:, None, None] * eye)

    problems = _node_problems(net)
    chosen = None
    last_diag = ""
    for floor in DECAY_FLOORS:
        caps = _node_caps(problems, floor)
        if None in caps:
            i = caps.index(None) + 1
            raise Infeasible(
                mu_lo_uniform,
                MU_HI,
                f"node {i} has no feasible attenuation level at any M^-1 >= 0",
            )
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

    # Smallest shared level reaching half the best margin (monotone in t),
    # bisected on the value margin - target.
    target = 0.5 * max_margin
    t_floor = 1e-9 * (1.0 + abs(mu_lo_uniform))

    def short_of_target(_, levels):
        gaps = np.array([profile_margin(np.minimum(t, caps)) for t in levels]) - target
        return gaps < 0.0, gaps

    level = t_floor
    (floor_short,), (floor_gap,) = short_of_target(None, [t_floor])
    if floor_short:
        _, (level,) = _replay_bisections(
            [t_floor], [float(caps.max())], [floor_gap], [max_margin - target], short_of_target
        )
    mu_profile = np.minimum(level, caps)

    try:
        result = _certify(gm, problems, P, [mu * eye for mu in mu_profile])
    except Infeasible as exc:
        raise Infeasible(
            mu_lo_uniform, MU_HI, f"certification failed: {exc.detail}"
        ) from exc
    return replace(
        result,
        mu_profile=tuple(float(m) for m in mu_profile),
        mu_lo_uniform=mu_lo_uniform,
        decay_floor=floor,
        certificates_made=problems.certified,
        margins_evaluated=margins + 1,  # and the certification's own
    )


def verify_tuning(net: Network, P: np.ndarray, m_inv_blocks) -> TuningResult:
    """Certify externally supplied M_i^-1 blocks against both conditions.

    Accepts any positive definite blocks (e.g. from an external SDP solver)
    and returns the same certificate structure tune_scalar produces, through
    the same certification; raises Infeasible when either condition fails.
    """
    return _certify(assemble_global(net), _node_problems(net), P, m_inv_blocks)
