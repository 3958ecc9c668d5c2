import numpy as np
import pytest

from menf import (
    DisturbanceSpec,
    EnergyCandidates,
    HypothesisNotVerified,
    Scenario,
    Trajectories,
    X0Law,
    check_hinf,
    consensus_cost,
    energy_cost,
    laplacian_P,
    lhs_cost,
    rhs_budget,
    simulate,
)

from conftest import make_single_node_network, make_two_node_network


def synthetic_traj(net, t, x, xhat, hypotheses=None):
    steps1 = len(t)
    zeros_w = np.zeros((steps1, net.plant.q))
    v = {i: np.zeros((steps1, net.node(i).p)) for i in net.node_ids()}
    eps = {e: np.zeros((steps1, net.link(*e).m)) for e in net.edges}
    return Trajectories(
        t=t,
        x=x,
        xhat=xhat,
        K=np.zeros((net.N, steps1, net.n, net.n)),
        w_samples=zeros_w,
        v_samples=v,
        eps_samples=eps,
        realization=None,
        network=net,
        hypotheses=hypotheses or {},
    )


def test_lhs_zero_error_and_zero_p():
    net = make_single_node_network()
    t = np.arange(0, 1.0 + 1e-12, 1e-3)
    x = np.zeros((len(t), 1))
    xhat = np.zeros((1, len(t), 1))
    traj = synthetic_traj(net, t, x, xhat)
    assert lhs_cost(traj, np.eye(1)) == 0.0
    xhat_moving = np.cumsum(np.ones((1, len(t), 1)), axis=1)
    traj2 = synthetic_traj(net, t, x, xhat_moving)
    assert lhs_cost(traj2, np.zeros((1, 1))) == 0.0


def test_lhs_closed_form_exponential():
    # e(t) = exp(-t), P = 1, T = 10: integral 0.5 (1 - exp(-20))
    net = make_single_node_network()
    t = np.arange(0, 10.0 + 1e-12, 1e-3)
    x = np.zeros((len(t), 1))
    xhat = np.exp(-t)[None, :, None]
    traj = synthetic_traj(net, t, x, xhat)
    assert lhs_cost(traj, np.eye(1)) == pytest.approx(0.4999999989694232, abs=1e-6)


def test_lhs_monotone_in_horizon():
    net = make_single_node_network()
    t = np.arange(0, 2.0 + 1e-12, 1e-3)
    rng = np.random.default_rng(0)
    xhat = rng.standard_normal((1, len(t), 1))
    traj_full = synthetic_traj(net, t, np.zeros((len(t), 1)), xhat)
    half = len(t) // 2
    traj_half = synthetic_traj(
        net, t[:half], np.zeros((half, 1)), xhat[:, :half, :]
    )
    assert lhs_cost(traj_half, np.eye(1)) <= lhs_cost(traj_full, np.eye(1))


def test_rhs_budget_zero_case():
    net = make_single_node_network()
    scenario = Scenario(
        network=net,
        T=1.0,
        dt=1e-3,
        seed=0,
        x0_law=X0Law(kind="fixed", value=np.zeros(1)),
        m_inv_blocks=(np.zeros((1, 1)),),
    )
    traj = simulate(scenario)
    breakdown = rhs_budget(scenario, traj)
    assert breakdown.total == 0.0


def test_rhs_budget_unit_pulse_model_term(chua_net, chua_tuning):
    # N = 5 nodes, unit scalar pulse of 1 s on one w channel: model term = 5
    net = chua_net
    scenario = Scenario(
        network=net,
        T=10.0,
        dt=1e-3,
        seed=0,
        x0_law=X0Law(kind="fixed", value=np.zeros(3)),
        disturbances=(
            DisturbanceSpec(
                kind="pulse", target="w", amplitude=np.array([1.0, 0.0, 0.0]),
                start=0.0, duration=1.0,
            ),
        ),
        m_inv_blocks=chua_tuning.m_inv_blocks,
    )
    traj = simulate(scenario)
    breakdown = rhs_budget(scenario, traj)
    assert breakdown.model == pytest.approx(5.0, rel=1e-12)
    assert breakdown.measurement == 0.0 and breakdown.communication == 0.0


def test_rhs_budget_breakdown_nonneg_and_additive(chua_run):
    scenario, traj = chua_run
    breakdown = rhs_budget(scenario, traj)
    terms = [
        breakdown.init, breakdown.model, breakdown.measurement, breakdown.communication
    ]
    assert all(v >= 0 for v in terms)
    assert breakdown.total == pytest.approx(sum(terms), rel=0, abs=0)


def test_check_hinf_zero_case_and_warning():
    net = make_single_node_network()
    scenario = Scenario(
        network=net,
        T=1.0,
        dt=1e-3,
        seed=0,
        x0_law=X0Law(kind="fixed", value=np.zeros(1)),
        m_inv_blocks=(np.zeros((1, 1)),),
    )
    traj = simulate(scenario)
    with pytest.warns(HypothesisNotVerified):
        report = check_hinf(scenario, traj, np.eye(1))
    assert report.lhs == 0.0 and report.rhs == 0.0 and report.slack == 0.0


def test_check_hinf_no_warning_with_metadata(chua_run, chua_P):
    import warnings

    scenario, traj = chua_run
    with warnings.catch_warnings():
        warnings.simplefilter("error", HypothesisNotVerified)
        report = check_hinf(scenario, traj, chua_P)
    assert report.slack >= 0


def test_rhs_monotone_in_xcal(chua_run):
    # inflating the initialization weights inflates the budget
    from menf import NodeModel, build_network

    scenario, traj = chua_run
    net = scenario.network
    slacks = []
    for scale in (1.0, 10.0):
        nodes = [
            NodeModel(
                C=node.C, D=node.D, xi=node.xi, Xcal=scale * node.Xcal,
                links=dict(node.links),
            )
            for node in net.nodes
        ]
        scaled = build_network(net.plant, nodes, net.edges)
        scen2 = Scenario(
            network=scaled,
            T=scenario.T,
            dt=scenario.dt,
            seed=scenario.seed,
            x0_law=scenario.x0_law,
            disturbances=scenario.disturbances,
            m_inv_blocks=scenario.m_inv_blocks,
            K0_blocks=scenario.K0_blocks,
        )
        breakdown = rhs_budget(scen2, traj)
        slacks.append(breakdown.total)
    assert slacks[1] > slacks[0]


def test_consensus_cost_zero_when_estimates_agree():
    net = make_two_node_network(n=2, seed=1)
    t = np.arange(0, 1.0 + 1e-12, 1e-3)
    xhat = np.broadcast_to(
        np.sin(t)[None, :, None], (2, len(t), 2)
    ).copy()
    traj = synthetic_traj(net, t, np.zeros((len(t), 2)), xhat)
    assert consensus_cost(traj, np.eye(2)) == pytest.approx(0.0, abs=1e-18)


def test_consensus_cost_equals_laplacian_lhs(chua_run):
    scenario, traj = chua_run
    P0 = np.eye(3)
    P = laplacian_P(scenario.network, P0, ridge=0.0)
    a = consensus_cost(traj, P0)
    b = lhs_cost(traj, P)
    assert abs(a - b) <= 1e-9 * max(abs(a), 1e-12)
    # the ridge-free disagreement cost sits inside the tuned budget
    assert 0 < a <= rhs_budget(scenario, traj).total


def test_energy_cost_zero_for_consistent_truth():
    # x0 = xi, w = 0, eta = 0, noiseless data, xhat tracks x exactly: J = 0
    net = make_single_node_network(a=-0.5, b=1.0, c=1.0, d=1.0)
    scenario = Scenario(
        network=net,
        T=1.0,
        dt=1e-3,
        seed=0,
        x0_law=X0Law(kind="fixed", value=np.zeros(1)),
        m_inv_blocks=(np.zeros((1, 1)),),
    )
    traj = simulate(scenario)
    J = energy_cost(
        net, 1, traj, EnergyCandidates(x0=np.zeros(1)), np.zeros((1, 1))
    )
    assert J == pytest.approx(0.0, abs=1e-18)


def test_energy_cost_perturbation_increases():
    net = make_single_node_network(a=-0.5, b=1.0, c=1.0, d=1.0)
    scenario = Scenario(
        network=net,
        T=1.0,
        dt=1e-3,
        seed=0,
        x0_law=X0Law(kind="fixed", value=np.zeros(1)),
        m_inv_blocks=(np.zeros((1, 1)),),
    )
    traj = simulate(scenario)
    steps1 = len(traj.t)
    base = energy_cost(net, 1, traj, EnergyCandidates(x0=np.zeros(1)), np.zeros((1, 1)))
    bump = np.zeros((steps1, 1))
    bump[100:300, 0] = 0.05 * np.sin(np.linspace(0, np.pi, 200))
    J = energy_cost(
        net, 1, traj, EnergyCandidates(x0=np.zeros(1), w=bump), np.zeros((1, 1))
    )
    assert J > base


def test_energy_cost_quadratic_scaling():
    # zero initial term and zero candidate trajectory: doubling the data
    # doubles every residual, so J quadruples
    from menf import NodeModel, build_network

    base = make_two_node_network(n=2, seed=3)
    nodes = [
        NodeModel(
            C=node.C, D=node.D, xi=np.zeros(2), Xcal=node.Xcal, links=dict(node.links)
        )
        for node in base.nodes
    ]
    net = build_network(base.plant, nodes, base.edges)
    rng = np.random.default_rng(4)
    t = np.arange(0, 0.5 + 1e-12, 1e-3)
    steps1 = len(t)
    data_x = rng.standard_normal((steps1, 2))
    data_xhat = rng.standard_normal((2, steps1, 2))

    def J(scale):
        traj = synthetic_traj(net, t, scale * data_x, scale * data_xhat)
        cands = EnergyCandidates(x0=np.zeros(2))  # candidate state stays at 0
        return energy_cost(net, 1, traj, cands, 0.1 * np.eye(2))

    assert J(2.0) == pytest.approx(4.0 * J(1.0), rel=1e-9)


def test_energy_cost_upto_prefix():
    net = make_single_node_network()
    scenario = Scenario(
        network=net,
        T=1.0,
        dt=1e-3,
        seed=0,
        x0_law=X0Law(kind="fixed", value=np.array([0.5])),
        m_inv_blocks=(np.zeros((1, 1)),),
    )
    traj = simulate(scenario)
    full = energy_cost(net, 1, traj, EnergyCandidates(x0=np.zeros(1)), np.zeros((1, 1)))
    half = energy_cost(
        net, 1, traj, EnergyCandidates(x0=np.zeros(1)), np.zeros((1, 1)), upto=0.5
    )
    assert 0 <= half <= full
