import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from menf import (
    DisturbanceSpec,
    HypothesisNotVerified,
    Scenario,
    Trajectories,
    X0Law,
    check_hinf,
    consensus_cost,
    laplacian_P,
    lhs_cost,
    realize_disturbances,
    rhs_budget,
    simulate,
)

from conftest import make_single_node_network, make_two_node_network, random_network


def synthetic_traj(net, t, x, xhat, hypotheses=None):
    """Given states on the grid t, with every disturbance zero."""
    quiet = Scenario(
        network=net,
        T=float(t[-1]),
        dt=float(t[1] - t[0]),
        seed=0,
        x0_law=X0Law(kind="fixed", value=np.zeros(net.n)),
    )
    return Trajectories(
        t=t,
        x=x,
        xhat=xhat,
        K=np.zeros((net.N, len(t), net.n, net.n)),
        realization=realize_disturbances(quiet),
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


@pytest.mark.parametrize("margin", [None, 0.0, -1.0, float("nan")])
def test_check_hinf_zero_case_and_warning(margin):
    # the bound is guaranteed only under a positive stacked-condition margin
    net = make_single_node_network()
    scenario = Scenario(
        network=net,
        T=1.0,
        dt=1e-3,
        seed=0,
        x0_law=X0Law(kind="fixed", value=np.zeros(1)),
        m_inv_blocks=(np.zeros((1, 1)),),
        minv_margin=margin,
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


def test_rhs_monotone_in_initial_gain(chua_run):
    # inflating the initialization weights, the initial gains K(0), inflates
    # the budget
    from dataclasses import replace

    scenario, traj = chua_run
    totals = [
        rhs_budget(
            replace(
                scenario,
                K0_blocks=tuple(scale * b for b in scenario.gain_initial_blocks()),
            ),
            traj,
        ).total
        for scale in (1.0, 10.0)
    ]
    assert totals[1] > totals[0]


@pytest.mark.parametrize(
    "xcal, k0", [(0.01, 100.0), (100.0, 0.5)], ids=["K0-above-Xcal", "K0-below-Xcal"]
)
def test_budget_weights_the_initial_error_by_k0(xcal, k0):
    # One certified node whose gains start at K0 != Xcal and stay positive
    # definite: the proof's storage function at t = 0 is |x0 - xi|^2_{K(0)}.
    # Weighted by Xcal, the first case read slack -39.7.
    from menf.tuning import verify_tuning

    net = make_single_node_network(xcal=xcal)
    m_inv = (np.array([[1.5]]),)
    scenario = Scenario(
        network=net,
        T=5.0,
        dt=1e-3,
        seed=0,
        x0_law=X0Law(kind="fixed", value=np.array([10.0])),
        m_inv_blocks=m_inv,
        minv_margin=verify_tuning(net, np.eye(1), m_inv).minv_margin,
        K0_blocks=(np.array([[k0]]),),
    )
    traj = simulate(scenario)
    assert traj.hypotheses["gains_positive_definite"]
    report = check_hinf(scenario, traj, np.eye(1))
    assert report.breakdown.init == pytest.approx(100.0 * k0, rel=1e-15)
    assert report.slack >= 0


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


# ---------------------------------------------------------------------------
# The minimum-energy property: each estimate minimizes its node's energy
# ---------------------------------------------------------------------------

def _value_function(scenario, traj, i):
    """argmin and Hessian of node i's discrete value function
    V_i(xi) = min J_i subject to x(T) = xi, by dense linear algebra.

    J_i = 1/2 |x0 - xi_i|^2_{K_i(0)} + 1/2 int |w|^2
          + 1/2 int (|y_i - C_i x|^2_{R_i^-1} + sum_j |c_ij - W_ij x|^2_{U_ij^-1}
                     - |x - xhat_i|^2_{M_i^-1}),
    the neighbour errors eta eliminated pointwise, so each link weighs its
    residual by U^-1. The unknowns u = (x0, w_0 .. w_{K-1}) hold w constant
    on each panel, so 1/2 h |w_k|^2 is exact, and x_k = G_k u steps the
    plant by RK4: Phi = sum_{p<=4} (hA)^p / p!, Gamma = h sum_{p<=3}
    (hA)^p / (p + 1)! B. The state terms take the trapezoid rule on each
    panel, with that panel's own disturbance values at both of its ends, so
    no pulse edge is straddled; y_i and c_ij come from the run's x and
    xhat_j. With J = 1/2 u^T H u - b^T u + const, the argmin is G_K H^-1 b
    and the Hessian (G_K H^-1 G_K^T)^-1.
    """
    net, real = scenario.network, traj.realization
    node = net.node(i)
    A, B = net.plant.A, net.plant.B
    n, q = B.shape
    h, steps = scenario.dt, scenario.steps
    terms = [np.eye(n)]
    for p in range(1, 5):
        terms.append(terms[-1] @ (h * A) / p)
    Phi = sum(terms)
    Gamma = h * sum(terms[p] / (p + 1) for p in range(4)) @ B
    d = n + steps * q
    G = np.zeros((steps + 1, n, d))
    G[0, :, :n] = np.eye(n)
    for k in range(steps):
        G[k + 1] = Phi @ G[k]
        G[k + 1, :, n + k * q:n + (k + 1) * q] += Gamma

    K0 = scenario.gain_initial_blocks()[i - 1]
    m_inv = scenario.m_inv_blocks[i - 1]
    v = real.v[i].panels(0, steps)
    eps = {j: real.eps[(i, j)].panels(0, steps) for j in net.neighbors[i]}

    def linear_term(grid):
        """C^T R^-1 y + sum_j W^T U^-1 c_j - M^-1 xhat_i at the grid points
        `grid`, one per panel, with the panels' disturbance values."""
        y = traj.x[grid] @ node.C.T + v @ node.D.T
        out = y @ node.CtRinv.T - traj.xhat[i - 1, grid] @ m_inv.T
        for j, link in node.links.items():
            c = traj.xhat[j - 1, grid] @ link.W.T + eps[j] @ link.F.T
            out += c @ link.WtUinv.T
        return out

    weights = np.full(steps + 1, h)
    weights[[0, -1]] = h / 2
    Omega = node.CtRinvC + net.delta_block(i) - m_inv
    H = np.zeros((d, d))
    H[:n, :n] = K0
    H[n:, n:] = h * np.eye(steps * q)
    H += (weights[:, None, None] * G).reshape(-1, d).T @ (Omega @ G).reshape(-1, d)
    b = np.zeros(d)
    b[:n] = K0 @ node.xi
    for grid, Gs in ((slice(0, steps), G[:-1]), (slice(1, steps + 1), G[1:])):
        b += (h / 2) * Gs.reshape(-1, d).T @ linear_term(grid).ravel()
    # the minimum exists: J is strictly convex in u
    L = np.linalg.cholesky(H)
    Y = np.linalg.solve(L, np.column_stack([b, G[-1].T]))
    return G[-1] @ np.linalg.solve(L.T, Y[:, 0]), np.linalg.inv(Y[:, 1:].T @ Y[:, 1:])


def _pulse_scenario(rng, net, dt, T=0.24, coarse=8e-3):
    """net on [0, T] at step dt, from a fixed random x0, with M_i^-1 = mu_i I
    (mu_i ~ U[0, 1]), random K0 != Xcal and a random pulse on every channel
    whose edges lie on the grid of step `coarse`."""
    N, n = net.N, net.n
    cells = round(T / coarse)
    channels = (
        [dict(target="w", dim=net.plant.q)]
        + [dict(target="v", node=i, dim=net.node(i).p) for i in net.node_ids()]
        + [dict(target="eps", edge=e, dim=net.link(*e).m) for e in net.edges]
    )
    pulses = []
    for channel in channels:
        dim = channel.pop("dim")
        start = int(rng.integers(0, cells))
        width = int(rng.integers(1, cells - start + 1))
        pulses.append(DisturbanceSpec(
            kind="pulse", amplitude=rng.uniform(-1.0, 1.0, dim),
            start=start * coarse, duration=width * coarse, **channel,
        ))
    K0 = []
    for _ in range(N):
        X = rng.standard_normal((n, n))
        K0.append(0.3 * X @ X.T + 0.5 * np.eye(n))
    return Scenario(
        network=net,
        T=T,
        dt=dt,
        seed=0,
        x0_law=X0Law(kind="fixed", value=rng.standard_normal(n)),
        disturbances=tuple(pulses),
        m_inv_blocks=tuple(mu * np.eye(n) for mu in rng.uniform(0.0, 1.0, N)),
        K0_blocks=tuple(K0),
    )


@settings(max_examples=20, deadline=None)
@given(N=st.integers(1, 4), n=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_estimate_and_gain_are_the_argmin_and_hessian_of_the_value_function(N, n, seed):
    """The paper's minimum-energy claim: xhat_i(T) minimizes node i's value
    function and K_i(T) is its Hessian. The discrete value function tends
    to both at second order, so each relative error falls by at least 3
    per halving of dt (the Hessian's unless already below 1e-10). With the
    initial term weighted by Xcal instead of K0, neither error falls."""
    net = random_network(np.random.default_rng(seed), N, n, ring=True)
    errors = []
    for dt in (8e-3, 4e-3, 2e-3):
        scenario = _pulse_scenario(np.random.default_rng([seed, 1]), net, dt)
        traj = simulate(scenario)
        row = []
        for i in net.node_ids():
            argmin, hessian = _value_function(scenario, traj, i)
            xhat, K = traj.xhat[i - 1, -1], traj.K[i - 1, -1]
            row.append((
                np.linalg.norm(argmin - xhat) / np.linalg.norm(xhat),
                np.linalg.norm(hessian - K) / np.linalg.norm(K),
            ))
        errors.append(row)
    errors = np.array(errors)  # (dt, node, argmin / Hessian)
    coarse, fine = errors[:-1], errors[1:]
    assert (coarse[..., 0] >= 3.0 * fine[..., 0]).all(), errors[..., 0]
    hess_ok = (coarse[..., 1] >= 3.0 * fine[..., 1]) | (fine[..., 1] < 1e-10)
    assert hess_ok.all(), errors[..., 1]
