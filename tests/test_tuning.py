import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import block_diag

from menf import (
    DimensionMismatch,
    Infeasible,
    NoStabilizingSolution,
    NotPositiveDefinite,
    NotStabilizable,
    assemble_global,
    check_minv,
    laplacian_P,
    node_feasible,
    solve_are_stabilizing,
    tune_scalar,
    verify_tuning,
)
from menf.linalg import symmetrize
from menf.model import NodeModel, PlantModel, build_network
import menf.tuning
from menf.tuning import (
    BISECT_RTOL,
    DECAY_FLOORS,
    LMI_STRICTNESS,
    MU_HI,
    WITNESS_THETAS,
    _node_caps,
    _NodeProblems,
    _require_P,
    _stacked_margin,
)

from conftest import make_single_node_network, random_network


def test_check_minv_identity_case():
    # no edges, P = 0, M_i^-1 = I: margin is exactly 1
    net = make_single_node_network()
    gm = assemble_global(net)
    margin = check_minv(gm, [np.eye(1)], np.zeros((1, 1)))
    assert margin == pytest.approx(1.0, abs=1e-12)


def test_check_minv_rejects_non_pd_m():
    net = make_single_node_network()
    gm = assemble_global(net)
    with pytest.raises(NotPositiveDefinite):
        check_minv(gm, [np.zeros((1, 1))], np.zeros((1, 1)))


def test_check_minv_chua_tuned_positive(chua_net, chua_P, chua_tuning):
    gm = assemble_global(chua_net)
    margin = check_minv(gm, chua_tuning.M_blocks, chua_P)
    assert margin > 0
    assert margin == pytest.approx(chua_tuning.minv_margin, rel=1e-9)


def test_node_feasible_classical_filter_case():
    # M^-1 = 0, observable pair, no neighbors: the standard filtering ARE
    net = make_single_node_network(a=-1.0, b=1.0, c=1.0, d=1.0)
    cert = node_feasible(net.plant, net.node(1), np.zeros((1, 1)), np.zeros((1, 1)))
    assert cert.feasible
    assert cert.lmi_margin < -1e-10
    assert cert.are.closed_loop_spectral_abscissa < 0


def test_node_feasible_detects_dominating_penalty():
    # scalar a=-1, b=1: S = c^2/r - m = -1 puts the Hamiltonian eigenvalues
    # sqrt(a^2 + S q) = 0 on the imaginary axis
    net = make_single_node_network(a=-1.0, b=1.0, c=0.1, d=1.0)
    m = 0.1 * 0.1 + 1.0
    cert = node_feasible(
        net.plant, net.node(1), np.zeros((1, 1)), np.array([[m]])
    )
    assert not cert.feasible
    assert cert.reason


def test_node_feasible_chua_node1(chua_net, chua_tuning):
    cert = node_feasible(
        chua_net.plant,
        chua_net.node(1),
        chua_net.delta_block(1),
        chua_tuning.m_inv_blocks[0],
    )
    assert cert.feasible and cert.lmi_margin < -1e-10


def test_tune_scalar_single_node_p_zero():
    net = make_single_node_network(a=-1.0, b=1.0, c=1.0, d=1.0)
    result = tune_scalar(net, np.zeros((1, 1)))
    assert result.minv_margin > 0
    assert result.mu_lo_uniform <= 0 + 1e-12
    assert len(result.mu_profile) == 1 and result.mu_profile[0] > 0
    assert result.node_certificates[0].feasible


def test_tune_scalar_chua_succeeds(chua_tuning):
    assert chua_tuning.minv_margin > 0
    assert all(c.feasible for c in chua_tuning.node_certificates)
    assert all(c.lmi_margin < -1e-10 for c in chua_tuning.node_certificates)
    # weak nodes capped below the uniform bound: the profile is genuinely per-node
    mu = np.array(chua_tuning.mu_profile)
    assert mu[0] < chua_tuning.mu_lo_uniform < mu[1]
    # the recorded numbers; the LMI margins are eigenvalues of blocks of norm
    # up to 8e3 that cancel to 1e-6..1e-3, so they get an absolute roundoff
    # allowance (one-ulp reorderings of the block move them by up to 3e-15)
    assert chua_tuning.mu_profile == pytest.approx(
        (2.6131421327590942, 23.80731964322426, 23.80731964322426,
         5.470281466841698, 23.80731964322426),
        rel=1e-12,
    )
    assert chua_tuning.minv_margin == pytest.approx(0.8865394401142036, rel=1e-12)
    assert [c.lmi_margin for c in chua_tuning.node_certificates] == pytest.approx(
        (-4.524019541029601e-06, -0.0007562101195909731, -0.0007614367750642471,
         -4.5241154713679e-06, -0.0007562101195909731),
        rel=1e-12,
        abs=1e-12,
    )


def test_tune_scalar_huge_p_infeasible(chua_net, chua_P):
    with pytest.raises(Infeasible) as exc:
        tune_scalar(chua_net, 1e6 * chua_P)
    assert exc.value.mu_lo > 0


def test_feasibility_monotone_below_profile(chua_net, chua_tuning):
    # node_feasible passes on a 10-point grid below each tuned level
    for i in chua_net.node_ids():
        mu_star = chua_tuning.mu_profile[i - 1]
        for frac in np.linspace(0.1, 1.0, 10):
            cert = node_feasible(
                chua_net.plant,
                chua_net.node(i),
                chua_net.delta_block(i),
                frac * mu_star * np.eye(3),
            )
            assert cert.feasible, f"node {i} infeasible at {frac * mu_star}"


def test_laplacian_two_cycle():
    # two nodes, both directions, scalar P0=1, ridge 0: [[1,-1],[-1,1]]
    from menf.model import NeighborLink

    plant = PlantModel(A=np.array([[-1.0]]), B=np.array([[1.0]]))

    def node(neighbor):
        link = NeighborLink(W=np.eye(1), F=np.eye(1), Z=np.eye(1))
        return NodeModel(
            C=np.eye(1), D=np.eye(1), xi=np.zeros(1), Xcal=np.eye(1),
            links={neighbor: link},
        )

    net = build_network(plant, [node(2), node(1)], [(1, 2), (2, 1)])
    P = laplacian_P(net, np.eye(1), ridge=0.0)
    np.testing.assert_allclose(P, np.array([[1.0, -1.0], [-1.0, 1.0]]), atol=1e-15)


def test_laplacian_empty_edges_ridge_only():
    net = make_single_node_network()
    P = laplacian_P(net, np.eye(1), ridge=0.01)
    np.testing.assert_allclose(P, 0.01 * np.eye(1), atol=1e-18)


def test_laplacian_chua_min_eigenvalue(chua_net):
    P = laplacian_P(chua_net, np.eye(3), ridge=0.01)
    assert P.shape == (15, 15)
    eigs = np.linalg.eigvalsh(P)
    assert eigs[0] == pytest.approx(0.01, abs=1e-12)


def test_consensus_cost_identity_pointwise(chua_net):
    # e' P e = (1/2) sum_i sum_{j in N_i} ||xhat_i - xhat_j||^2_{P0} for the
    # symmetrized-Laplacian P, pointwise in the stacked vector
    rng = np.random.default_rng(17)
    P0 = rng.standard_normal((3, 3))
    P0 = P0 @ P0.T
    P = laplacian_P(chua_net, P0, ridge=0.0)
    for _ in range(20):
        xhat = rng.standard_normal((5, 3))
        stacked = xhat.reshape(-1)
        lhs = stacked @ P @ stacked
        rhs = 0.0
        for i in chua_net.node_ids():
            for j in chua_net.neighbors[i]:
                d = xhat[i - 1] - xhat[j - 1]
                rhs += 0.5 * d @ P0 @ d
        assert lhs == pytest.approx(rhs, rel=1e-10)


def _assert_certified_at_the_shipped_blocks(net, P, tuning):
    """verify_tuning on a tune's own M^-1 blocks reproduces its certificates
    bit for bit, and its margin is the stacked condition at those blocks, not
    at the inverses of the M blocks."""
    result = verify_tuning(net, P, tuning.m_inv_blocks)
    assert result.minv_margin == tuning.minv_margin
    assert len(result.node_certificates) == len(tuning.node_certificates) == net.N
    for cert, tuned in zip(result.node_certificates, tuning.node_certificates):
        assert cert.feasible
        assert cert.lmi_margin == tuned.lmi_margin
        assert cert.lmi_witness.tobytes() == tuned.lmi_witness.tobytes()
        assert cert.are.Zplus.tobytes() == tuned.are.Zplus.tobytes()
    gm = assemble_global(net)
    Lt, Dt = gm.Ltilde, gm.DeltaTilde
    gap = block_diag(*tuning.m_inv_blocks) - P + Lt + Lt.T - Dt
    assert tuning.minv_margin == np.linalg.eigvalsh(symmetrize(gap))[0]


def test_verify_tuning_hook_accepts_tuned_blocks(chua_net, chua_P, chua_tuning):
    _assert_certified_at_the_shipped_blocks(chua_net, chua_P, chua_tuning)


@settings(max_examples=15, deadline=None)
@given(N=st.integers(1, 4), n=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
@example(N=3, n=2, seed=0)  # inv(M_i) differs from the tuned M_i^-1 in its last bits
def test_verify_tuning_hook_accepts_tuned_blocks_random(N, n, seed):
    net = random_network(np.random.default_rng(seed), N, n)
    P = laplacian_P(net, np.eye(n), 0.01)
    try:
        tuning = tune_scalar(net, P)
    except (Infeasible, NotStabilizable):
        return
    _assert_certified_at_the_shipped_blocks(net, P, tuning)


def test_tune_scalar_assembles_once_and_builds_each_node_problem_once(
    chua_net, chua_P, monkeypatch
):
    # the plant's PBH test runs once per tune, not once per node
    calls = {"assemble_global": 0, "_NodeProblems": 0, "check_stabilizable": 0}
    assemble, init = menf.tuning.assemble_global, _NodeProblems.__init__
    pbh = menf.tuning.check_stabilizable

    def counted_assemble(*args):
        calls["assemble_global"] += 1
        return assemble(*args)

    def counted_init(self, *args):
        calls["_NodeProblems"] += 1
        init(self, *args)

    def counted_pbh(*args):
        calls["check_stabilizable"] += 1
        pbh(*args)

    monkeypatch.setattr(menf.tuning, "assemble_global", counted_assemble)
    monkeypatch.setattr(_NodeProblems, "__init__", counted_init)
    monkeypatch.setattr(menf.tuning, "check_stabilizable", counted_pbh)
    tune_scalar(chua_net, chua_P)
    assert calls == {"assemble_global": 1, "_NodeProblems": 1, "check_stabilizable": 1}


_BAD_STACKED_SHAPES = {
    "P-12x12": lambda blocks, P: (blocks, np.eye(12)),
    "4-blocks": lambda blocks, P: (blocks[:4], P),
    "6-blocks": lambda blocks, P: (blocks + blocks[:1], P),
    "2x2-blocks": lambda blocks, P: ([b[:2, :2] for b in blocks], P),
}


@pytest.mark.parametrize("case", list(_BAD_STACKED_SHAPES))
@pytest.mark.parametrize("check", ["check_minv", "verify_tuning"])
def test_stacked_shapes_raise_dimension_mismatch(check, case, chua_net, chua_P, chua_tuning):
    # Chua is 5 nodes of order 3: P must be 15 x 15, M^-1 five 3 x 3 blocks
    reshape = _BAD_STACKED_SHAPES[case]
    with pytest.raises(DimensionMismatch):
        if check == "check_minv":
            blocks, P = reshape(list(chua_tuning.M_blocks), chua_P)
            check_minv(assemble_global(chua_net), blocks, P)
        else:
            blocks, P = reshape(list(chua_tuning.m_inv_blocks), chua_P)
            verify_tuning(chua_net, P, blocks)


def test_verify_tuning_rejects_blocks_of_another_order(chua_net, chua_P):
    # fifteen 1 x 1 blocks fill 15 x 15 as five 3 x 3 blocks do, but one
    # node's M_i^-1 is 3 x 3
    with pytest.raises(DimensionMismatch):
        verify_tuning(chua_net, chua_P, [30.0 * np.eye(1)] * 15)


def test_verify_tuning_hook_rejects_bad_blocks(chua_net, chua_P):
    # uniform level above the weak-node cap: node LMI infeasible
    with pytest.raises(Infeasible):
        verify_tuning(chua_net, chua_P, [10.0 * np.eye(3)] * 5)


# ---------------------------------------------------------------------------
# The per-node problem against the predicate it replaced
# ---------------------------------------------------------------------------

def _composed_certificate(plant, node, delta_ii, m_inv):
    """The node certificate composed from public solve_are_stabilizing calls
    and an np.block LMI block, each solve with its own PBH test: the reference
    the per-node problem must reproduce bit for bit. Returns (ARE solution or
    None, witness or None, margin or None)."""
    S = symmetrize(node.CtRinvC + np.asarray(delta_ii) - m_inv)
    try:
        are = solve_are_stabilizing(plant.A, plant.B, S)
    except NoStabilizingSolution:
        return None, None, None
    q_norm = 1.0 + float(np.linalg.norm(plant.Q))
    A, B = plant.A, plant.B
    for theta_rel in WITNESS_THETAS:
        theta = theta_rel * q_norm
        B_theta = np.linalg.cholesky(plant.Q + theta * np.eye(plant.n))
        try:
            are_theta = solve_are_stabilizing(A, B_theta, S)
        except NoStabilizingSolution:
            continue
        X = symmetrize(np.linalg.inv(are_theta.Zplus))
        core = symmetrize(A.T @ X + X @ A - node.CtRinvC - np.asarray(delta_ii) + m_inv)
        block = np.block([[core, X @ B], [B.T @ X, -np.eye(plant.q)]])
        lam = float(np.linalg.eigvalsh(symmetrize(block))[-1])
        if lam < LMI_STRICTNESS:
            return are, X, lam
    return are, None, None


def _assert_same_certificate(cert, composed):
    are, X, lam = composed
    assert cert.feasible == (X is not None)
    assert (cert.are is None) == (are is None)
    if are is not None:
        assert cert.are.Zplus.tobytes() == are.Zplus.tobytes()
        assert cert.are.residual == are.residual
        assert cert.are.closed_loop_spectral_abscissa == are.closed_loop_spectral_abscissa
    if X is not None:
        assert cert.lmi_witness.tobytes() == X.tobytes()
        assert cert.lmi_margin == lam


def _reference_cap(plant, node, delta_ii, floor):
    """The cap bisection over public node_feasible and the decay floor, with
    every certificate it decided on."""
    eye = np.eye(plant.n)
    probes = []

    def ok(mu):
        cert = node_feasible(plant, node, delta_ii, mu * eye)
        probes.append((mu, cert))
        return cert.feasible and cert.are.closed_loop_spectral_abscissa <= -floor

    if not ok(0.0):
        return None, probes
    if ok(MU_HI):
        return MU_HI, probes
    lo, hi = 0.0, MU_HI
    while hi - lo > BISECT_RTOL * (1.0 + hi):
        mid = 0.5 * (lo + hi)
        if ok(mid):
            lo = mid
        else:
            hi = mid
    return lo, probes


def _assert_caps_match_reference(net):
    plant = net.plant
    problems = _NodeProblems(plant, net.nodes, [net.delta_block(i) for i in net.node_ids()])
    caps = {floor: _node_caps(problems, floor) for floor in DECAY_FLOORS}
    for i in net.node_ids():
        node, delta_ii = net.node(i), net.delta_block(i)
        for floor in DECAY_FLOORS:
            cap, probes = _reference_cap(plant, node, delta_ii, floor)
            assert caps[floor][i - 1] == cap
            # the decisions that fix the cap: both ends and the final bracket
            for mu, cert in probes[:2] + probes[-2:]:
                composed = _composed_certificate(plant, node, delta_ii, mu * np.eye(plant.n))
                _assert_same_certificate(cert, composed)


@settings(max_examples=25, deadline=None)
@given(N=st.integers(1, 4), n=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_node_cap_equals_the_bisection_over_node_feasible(N, n, seed):
    net = random_network(np.random.default_rng(seed), N, n)
    try:
        _NodeProblems(net.plant, net.nodes[:1], [net.delta_block(1)])
    except NotStabilizable:
        with pytest.raises(NotStabilizable):
            node_feasible(net.plant, net.node(1), net.delta_block(1), np.zeros((n, n)))
        return
    _assert_caps_match_reference(net)


def test_node_cap_equals_the_bisection_over_node_feasible_chua(chua_net):
    _assert_caps_match_reference(chua_net)


def _reference_level(net, P, caps):
    """tune_scalar's shared level on the given caps by the plain bisection
    loop, one stacked margin per midpoint: the reference the replayed
    bisection must reproduce bit for bit."""
    gm = assemble_global(net)
    P = _require_P(gm, P)
    eye = np.eye(net.n)

    mu_lo_uniform = float(
        np.linalg.eigvalsh(symmetrize(P - gm.Ltilde - gm.Ltilde.T + gm.DeltaTilde))[-1]
    )

    def profile_margin(mu_vec: np.ndarray) -> float:
        return _stacked_margin(gm, P, mu_vec[:, None, None] * eye)

    caps = np.asarray(caps)
    max_margin = profile_margin(caps)

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
    return hi


def _assert_profile_matches_reference(net, P, tuning):
    """The tuned profile is min(level, cap_i) of the plain bisections, bit
    for bit, at the decay floor the tune chose."""
    caps = [
        _reference_cap(net.plant, net.node(i), net.delta_block(i), tuning.decay_floor)[0]
        for i in net.node_ids()
    ]
    level = _reference_level(net, P, caps)
    assert tuning.mu_profile == tuple(float(m) for m in np.minimum(level, caps))


@settings(max_examples=15, deadline=None)
@given(N=st.integers(1, 4), n=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_tuned_profile_equals_the_plain_bisections(N, n, seed):
    net = random_network(np.random.default_rng(seed), N, n)
    P = laplacian_P(net, np.eye(n), 0.01)
    try:
        tuning = tune_scalar(net, P)
    except (Infeasible, NotStabilizable):
        return
    _assert_profile_matches_reference(net, P, tuning)


def test_tuned_profile_equals_the_plain_bisections_chua(chua_net, chua_P, chua_tuning):
    _assert_profile_matches_reference(chua_net, chua_P, chua_tuning)


def test_tune_scalar_chua_certifies_fewer_problems_than_the_plain_bisections(
    chua_net, chua_P, monkeypatch
):
    # the plain bisections certified 162 node problems and evaluated 24
    # stacked margins on Chua
    counts = {"certificates": 0, "margins": 0}
    certify, margin = menf.tuning._certify_nodes, menf.tuning._stacked_margin

    def counted_certify(problems, nodes, *args):
        counts["certificates"] += len(nodes)
        return certify(problems, nodes, *args)

    def counted_margin(*args):
        counts["margins"] += 1
        return margin(*args)

    monkeypatch.setattr(menf.tuning, "_certify_nodes", counted_certify)
    monkeypatch.setattr(menf.tuning, "_stacked_margin", counted_margin)
    result = tune_scalar(chua_net, chua_P)
    assert counts["certificates"] <= 110 and counts["margins"] <= 16
    assert result.certificates_made == counts["certificates"]
    assert result.margins_evaluated == counts["margins"]


def _unstabilizable_network():
    # the unstable mode x1 is not reached by the disturbance
    plant = PlantModel(A=np.diag([1.0, -1.0]), B=np.array([[0.0], [1.0]]))
    node = NodeModel(
        C=np.eye(2), D=np.eye(2), xi=np.zeros(2), Xcal=np.eye(2), links={}
    )
    return build_network(plant, [node], [])


def test_node_feasible_rejects_an_unstabilizable_plant():
    net = _unstabilizable_network()
    with pytest.raises(NotStabilizable):
        node_feasible(net.plant, net.node(1), np.zeros((2, 2)), np.zeros((2, 2)))


def test_tune_scalar_rejects_an_unstabilizable_plant_after_the_p_shape():
    net = _unstabilizable_network()
    with pytest.raises(DimensionMismatch):
        tune_scalar(net, np.zeros((3, 3)))
    with pytest.raises(NotStabilizable):
        tune_scalar(net, np.zeros((2, 2)))
