import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from menf import (
    DimensionMismatch,
    DisturbanceSpec,
    LostPositivity,
    MissingTuning,
    NeighborLink,
    NodeModel,
    NonFinite,
    PlantModel,
    Scenario,
    SingularGain,
    X0Law,
    build_network,
    make_isolated_variant,
    realize_disturbances,
    simulate,
    simulate_error_oracle,
    simulate_seeds,
)
from conftest import (
    CHUA_A,
    CHUA_EDGES,
    chua_scenario,
    make_single_node_network,
    make_two_node_network,
)


def small_scenario(net, seed=0, T=1.0, dt=1e-3, disturbances=(), x0=None):
    law = (
        X0Law(kind="fixed", value=x0)
        if x0 is not None
        else X0Law(kind="gaussian", mean=0.0, std=0.5)
    )
    return Scenario(
        network=net,
        T=T,
        dt=dt,
        seed=seed,
        x0_law=law,
        disturbances=disturbances,
        m_inv_blocks=tuple(0.01 * np.eye(net.n) for _ in range(net.N)),
    )


def test_exact_tracking_without_disturbances():
    # xi_i = x0 and zero inputs: innovations vanish at every stage
    from menf import NodeModel, build_network

    base = make_two_node_network(n=3, seed=2)
    common = np.array([0.3, -0.1, 0.8])
    nodes = [
        NodeModel(C=node.C, D=node.D, xi=common, Xcal=node.Xcal, links=dict(node.links))
        for node in base.nodes
    ]
    net = build_network(base.plant, nodes, base.edges)
    scenario = small_scenario(net, T=2.0, x0=common)
    traj = simulate(scenario)
    assert float(np.max(np.abs(traj.e))) <= 1e-9


def test_determinism_bit_identical(chua_tuning):
    from dataclasses import replace

    s1 = chua_scenario(4, chua_tuning)
    s2 = chua_scenario(4, chua_tuning)
    # identical scenario + seed: identical realizations and trajectories
    t1 = simulate(replace(s1, T=0.5))
    t2 = simulate(replace(s2, T=0.5))
    assert np.array_equal(t1.x, t2.x)
    assert np.array_equal(t1.xhat, t2.xhat)
    assert np.array_equal(t1.K, t2.K)
    assert np.array_equal(t1.w_samples, t2.w_samples)


def test_chua_scenario_contract(chua_tuning):
    scenario = chua_scenario(1, chua_tuning)
    net = scenario.network
    np.testing.assert_array_equal(net.plant.A, CHUA_A)
    assert net.edges == tuple(sorted(CHUA_EDGES))
    assert len(net.edges) == 8
    assert scenario.T == 10.0 and scenario.dt == 1e-3
    for K0 in scenario.gain_initial_blocks():
        np.testing.assert_array_equal(K0, 10.0 * np.eye(3))
    # same seed -> identical disturbance realizations
    r1 = realize_disturbances(scenario)
    r2 = realize_disturbances(chua_scenario(1, chua_tuning))
    assert np.array_equal(r1.x0, r2.x0)
    t = np.linspace(0, 10, 23)
    assert np.array_equal(r1.w.values(t, closed=True), r2.w.values(t, closed=True))


def test_distinct_seeds_differ(chua_tuning):
    r1 = realize_disturbances(chua_scenario(1, chua_tuning))
    r2 = realize_disturbances(chua_scenario(2, chua_tuning))
    assert not np.array_equal(r1.x0, r2.x0)


def test_missing_tuning_raises():
    net = make_single_node_network()
    scenario = Scenario(
        network=net,
        T=1.0,
        dt=1e-3,
        seed=0,
        x0_law=X0Law(kind="fixed", value=np.zeros(1)),
    )
    with pytest.raises(MissingTuning):
        simulate(scenario)


def test_grid_validation():
    net = make_single_node_network()
    with pytest.raises(DimensionMismatch):
        Scenario(
            network=net,
            T=1.0005,
            dt=1e-3,
            seed=0,
            x0_law=X0Law(kind="fixed", value=np.zeros(1)),
        )


def test_pulse_edges_snap_with_warning():
    net = make_single_node_network()
    spec = DisturbanceSpec(
        kind="pulse", target="w", amplitude=1.0, start=0.00042, duration=0.5
    )
    scenario = small_scenario(net, disturbances=(spec,))
    with pytest.warns(UserWarning, match="snapped"):
        realize_disturbances(scenario)


def test_l2_accounting_pulse_exact():
    # verifier's channel energy equals amplitude^2 * duration exactly
    net = make_single_node_network()
    spec = DisturbanceSpec(
        kind="pulse", target="w", amplitude=2.0, start=0.25, duration=0.5
    )
    scenario = small_scenario(net, disturbances=(spec,))
    real = realize_disturbances(scenario)
    energy = real.w.energy_on(scenario.T, scenario.dt)
    assert energy == pytest.approx(4.0 * 0.5, rel=1e-12)


def test_held_gaussian_is_square_integrable_and_held():
    net = make_single_node_network()
    spec = DisturbanceSpec(
        kind="held_gaussian", target="w", mean=0.0, std=1.0, hold=0.1
    )
    scenario = small_scenario(net, disturbances=(spec,))
    real = realize_disturbances(scenario)
    # constant within a hold window
    a, b, c = real.w.values(np.array([0.01, 0.09, 0.11]))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert np.isfinite(real.w.energy_on(scenario.T, scenario.dt))


def test_error_oracle_trivial_zero():
    net = make_two_node_network(n=2, seed=4)
    scenario = small_scenario(net, T=1.0, x0=np.zeros(2))
    real = realize_disturbances(scenario)
    out = simulate_error_oracle(scenario, real, e0=np.zeros((2, 2)))
    # no disturbances and e(0)=0: stays identically zero
    assert float(np.max(np.abs(out.e))) <= 1e-14


def test_error_oracle_matches_simulation():
    net = make_two_node_network(n=3, seed=6)
    specs = (
        DisturbanceSpec(kind="pulse", target="w", amplitude=0.7, start=0.0, duration=0.2),
        DisturbanceSpec(kind="held_gaussian", target="v", node=1, std=0.5, hold=0.05),
    )
    scenario = small_scenario(net, T=1.5, disturbances=specs)
    traj = simulate(scenario)
    oracle = simulate_error_oracle(scenario, traj.realization)
    assert float(np.max(np.abs(oracle.e - traj.e))) <= 1e-8


def test_single_node_scalar_error_recursion():
    # one scalar node: cross-check the coupled engine against a direct
    # hand-integration of the closed error/gain pair
    net = make_single_node_network(a=-0.5, b=1.0, c=2.0, d=1.0, xcal=1.5)
    scenario = Scenario(
        network=net,
        T=1.0,
        dt=1e-3,
        seed=0,
        x0_law=X0Law(kind="fixed", value=np.array([1.0])),
        m_inv_blocks=(np.zeros((1, 1)),),
    )
    traj = simulate(scenario)
    # hand RK4 on (e, k): edot = a e - k^{-1} c^2/r e ; kdot = -q k^2 + c^2/r - 2 a k
    a, b, c, r = -0.5, 1.0, 2.0, 1.0
    q = b * b
    e, k = -1.0, 1.5
    dt = 1e-3

    def f(state):
        e_, k_ = state
        de = a * e_ - (c * c / r) * e_ / k_
        dk = -q * k_ * k_ + c * c / r - 2 * a * k_
        return np.array([de, dk])

    state = np.array([e, k])
    for _ in range(1000):
        k1 = f(state)
        k2 = f(state + 0.5 * dt * k1)
        k3 = f(state + 0.5 * dt * k2)
        k4 = f(state + dt * k3)
        state = state + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    assert traj.e[0, -1, 0] == pytest.approx(state[0], abs=1e-10)
    assert traj.K[0, -1, 0, 0] == pytest.approx(state[1], abs=1e-10)


def test_step_halving_chua(chua_run):
    from dataclasses import replace

    scenario, traj = chua_run
    traj_half = simulate(replace(scenario, dt=scenario.dt / 2))
    e_T = np.linalg.norm(traj.e[:, -1, :])
    e_T_half = np.linalg.norm(traj_half.e[:, -1, :])
    assert abs(e_T - e_T_half) <= 1e-6


def test_isolated_variant_structure(chua_tuning):
    scenario = chua_scenario(0, chua_tuning)
    iso = make_isolated_variant(scenario, 1)
    net = iso.network
    assert net.neighbors[1] == ()
    assert (3, 1) in net.edges  # node 1 still feeds node 3
    assert np.array_equal(iso.m_inv_blocks[0], np.zeros((3, 3)))
    # eps channels into node 1 dropped, others kept with identical seeds
    assert all(not (s.target == "eps" and s.edge[0] == 1) for s in iso.disturbances)
    r_full = realize_disturbances(scenario)
    r_iso = realize_disturbances(iso)
    assert np.array_equal(r_full.x0, r_iso.x0)
    t = np.linspace(0, 10, 11)
    assert np.array_equal(r_full.w.values(t, closed=True), r_iso.w.values(t, closed=True))
    assert np.array_equal(
        r_full.eps[(3, 2)].values(t, closed=True), r_iso.eps[(3, 2)].values(t, closed=True)
    )


# ---------------------------------------------------------------------------
# Failure semantics: exception type and first-failure timestamp
# ---------------------------------------------------------------------------

def _failing_scenario(net, m_inv, x0, T=1.0):
    return Scenario(
        network=net,
        T=T,
        dt=1e-3,
        seed=0,
        x0_law=X0Law(kind="fixed", value=np.asarray(x0, dtype=float)),
        m_inv_blocks=tuple(m_inv),
    )


def _run_failing(scenario, error):
    with np.errstate(all="ignore"), pytest.raises(error) as info:
        simulate(scenario)
    return info.value


def test_lost_positivity_timestamp():
    # M^-1 cancels C^T R^-1 C and the plant is unstable, so dK = -K^2 - 100 K:
    # K decays towards 0 without crossing it and fails the grid guard.
    net = make_single_node_network(a=50.0)
    exc = _run_failing(_failing_scenario(net, [np.eye(1)], [0.0]), LostPositivity)
    assert exc.t == pytest.approx(0.277, abs=1e-12)
    assert exc.min_eigenvalue == pytest.approx(9.241285658996275e-13, rel=1e-6)


@pytest.mark.parametrize(
    "a, m_inv, when",
    [
        (np.inf, 0.0, "0.0005"),  # inf in A: the second RK4 stage gain is not SPD
        (-1.0, 50.0, "0.021"),  # M^-1 drives K indefinite between grid points
    ],
)
def test_singular_gain_timestamp(a, m_inv, when):
    net = make_single_node_network(a=a)
    exc = _run_failing(_failing_scenario(net, [m_inv * np.eye(1)], [0.0]), SingularGain)
    assert f"at t={when}:" in str(exc)


def test_non_finite_timestamp():
    # unstable plant: x grows by ~e^0.5 per step and overflows
    net = make_single_node_network(a=500.0)
    exc = _run_failing(_failing_scenario(net, [np.zeros((1, 1))], [1.0], T=2.0), NonFinite)
    assert exc.t == pytest.approx(1.405, abs=1e-12)


def test_state_failure_before_gain_failure():
    # NaN x0 fails at the first grid point, long before K loses positivity
    net = make_single_node_network(a=50.0)
    exc = _run_failing(_failing_scenario(net, [np.eye(1)], [np.nan]), NonFinite)
    assert exc.t == pytest.approx(1e-3, abs=1e-15)


def test_gain_failure_before_state_failure():
    # the gain fails at the second stage of the first step, long before the
    # unstable state overflows
    net = make_single_node_network(a=500.0)
    exc = _run_failing(_failing_scenario(net, [1e6 * np.eye(1)], [1.0], T=2.0), SingularGain)
    assert "at t=0.0005:" in str(exc)


@pytest.mark.parametrize(
    "m_inv_levels, when", [((0.01, 80.0), "0.013"), ((40.0, 0.01), "0.053")]
)
def test_singular_gain_timestamp_two_nodes(m_inv_levels, when):
    net = make_two_node_network(n=3, seed=6)
    scenario = _failing_scenario(
        net, [m * np.eye(3) for m in m_inv_levels], [0.1, 0.2, 0.3], T=0.5
    )
    exc = _run_failing(scenario, SingularGain)
    assert f"at t={when}:" in str(exc)


# ---------------------------------------------------------------------------
# Stacked innovation operator against the per-node error dynamics
# ---------------------------------------------------------------------------

def _random_network(rng, N, n):
    """Random plant and nodes with random directed edges; links have
    non-square, non-identity W and non-identity F."""
    q = int(rng.integers(1, n + 1))
    plant = PlantModel(
        A=0.5 * rng.standard_normal((n, n)) - np.eye(n),
        B=0.3 * rng.standard_normal((n, q)),
    )
    edges = [
        (i, j)
        for i in range(1, N + 1)
        for j in range(1, N + 1)
        if i != j and rng.random() < 0.6
    ]
    nodes = []
    for i in range(1, N + 1):
        links = {}
        for (a, j) in edges:
            if a != i:
                continue
            m = int(rng.integers(1, 4))
            G = rng.standard_normal((n, n))
            links[j] = NeighborLink(
                W=rng.standard_normal((m, n)),
                F=np.diag(rng.uniform(0.4, 0.8, m)) + 0.1 * rng.standard_normal((m, m)),
                Z=0.2 * (G @ G.T) + 0.1 * np.eye(n),
            )
        p = int(rng.integers(1, 3))
        X = rng.standard_normal((n, n))
        nodes.append(
            NodeModel(
                C=rng.standard_normal((p, n)),
                D=np.diag(rng.uniform(0.5, 1.0, p)) + 0.1 * rng.standard_normal((p, p)),
                xi=rng.standard_normal(n),
                Xcal=0.1 * (X @ X.T) + np.eye(n),
                links=links,
            )
        )
    return build_network(plant, nodes, edges)


def _random_channels(rng, net, dt):
    """On every channel: nothing, a pulse, held noise, or both summed."""
    where = [{"target": "w"}]
    where += [{"target": "v", "node": i} for i in net.node_ids()]
    where += [{"target": "eps", "edge": e} for e in net.edges]
    specs = []
    for loc in where:
        choice = int(rng.integers(0, 4))
        if choice & 1:
            start, length = rng.integers(0, 30), rng.integers(1, 30)
            specs.append(
                DisturbanceSpec(
                    kind="pulse", amplitude=float(rng.uniform(-2, 2)),
                    start=start * dt, duration=length * dt, **loc,
                )
            )
        if choice & 2:
            specs.append(
                DisturbanceSpec(
                    kind="held_gaussian", std=float(rng.uniform(0.1, 1.0)),
                    hold=int(rng.integers(3, 20)) * dt, **loc,
                )
            )
    return tuple(specs)


@settings(max_examples=40, deadline=None)
@given(N=st.integers(1, 4), n=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_stacked_operator_matches_error_oracle(N, n, seed):
    rng = np.random.default_rng(seed)
    net = _random_network(rng, N, n)
    scenario = Scenario(
        network=net,
        T=0.05,
        dt=1e-3,
        seed=seed,
        x0_law=X0Law(kind="gaussian", mean=0.0, std=1.0),
        disturbances=_random_channels(rng, net, 1e-3),
        m_inv_blocks=tuple(0.01 * np.eye(n) for _ in range(N)),
    )
    traj = simulate(scenario)
    oracle = simulate_error_oracle(scenario, traj.realization)
    assert float(np.max(np.abs(traj.e - oracle.e))) <= 1e-8


# ---------------------------------------------------------------------------
# simulate_seeds: one shared gain pass, the same bits as one run per seed
# ---------------------------------------------------------------------------

def _assert_same_run(a, b):
    assert np.array_equal(a.t, b.t)
    assert np.array_equal(a.x, b.x)
    assert np.array_equal(a.xhat, b.xhat)
    assert np.array_equal(a.K, b.K)
    assert np.array_equal(a.w_samples, b.w_samples)
    assert a.v_samples.keys() == b.v_samples.keys()
    for i in a.v_samples:
        assert np.array_equal(a.v_samples[i], b.v_samples[i])
    assert a.eps_samples.keys() == b.eps_samples.keys()
    for e in a.eps_samples:
        assert np.array_equal(a.eps_samples[e], b.eps_samples[e])
    assert a.hypotheses == b.hypotheses


@settings(max_examples=25, deadline=None)
@given(
    N=st.integers(1, 4),
    n=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
    seeds=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=4),
)
def test_simulate_seeds_equals_one_run_per_seed(N, n, seed, seeds):
    rng = np.random.default_rng(seed)
    net = _random_network(rng, N, n)
    scenario = Scenario(
        network=net,
        T=0.05,
        dt=1e-3,
        seed=seed,
        x0_law=X0Law(kind="gaussian", mean=0.0, std=1.0),
        disturbances=_random_channels(rng, net, 1e-3),
        m_inv_blocks=tuple(0.01 * np.eye(n) for _ in range(N)),
    )
    runs = simulate_seeds(scenario, seeds)
    assert len(runs) == len(seeds)
    for s, run in zip(seeds, runs):
        _assert_same_run(run, simulate(replace(scenario, seed=s)))


def test_simulate_seeds_shares_one_read_only_gain_array(chua_tuning):
    scenario = replace(chua_scenario(0, chua_tuning), T=0.05)
    a, b = simulate_seeds(scenario, [3, 4])
    assert a.K is b.K
    assert not a.K.flags.writeable
    with pytest.raises(ValueError):
        a.K[0, 0, 0, 0] = 1.0
    assert not np.array_equal(a.x, b.x)
    assert simulate_seeds(scenario, []) == []


def _blow_up_scenario():
    # x grows by ~e^0.5 per step from a gaussian x0, so the overflow time
    # depends on the seed through |x0|
    net = make_single_node_network(a=500.0)
    return Scenario(
        network=net,
        T=2.0,
        dt=1e-3,
        seed=0,
        x0_law=X0Law(kind="gaussian", mean=0.0, std=1.0),
        m_inv_blocks=(np.zeros((1, 1)),),
    )


def _sequential_failure(scenario, seeds):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(NonFinite) as info:
            [simulate(replace(scenario, seed=s)) for s in seeds]
    return info.value, len(caught)


def test_simulate_seeds_raises_first_failing_seed_in_list_order():
    scenario = _blow_up_scenario()
    x0 = {s: abs(realize_disturbances(replace(scenario, seed=s)).x0[0]) for s in range(40)}
    late, early = min(x0, key=x0.get), max(x0, key=x0.get)
    late_exc, late_warnings = _sequential_failure(scenario, [late])
    early_exc, early_warnings = _sequential_failure(scenario, [early])
    assert early_exc.t < late_exc.t

    for seeds, expected in (([late, early], late_exc), ([early, late], early_exc)):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(NonFinite) as info:
                simulate_seeds(scenario, seeds)
        assert info.value.t == expected.t
        assert info.value.t == _sequential_failure(scenario, seeds)[0].t
        # a failed seed is dropped from the stack, so it warns no further
        assert len(caught) <= late_warnings + early_warnings


def test_simulate_seeds_gain_failure_beats_later_state_failure():
    # the shared gain fails at t = 0.0005 for every seed, before any state
    # overflows, so the batch raises the first seed's SingularGain
    net = make_single_node_network(a=500.0)
    scenario = replace(_blow_up_scenario(), network=net, m_inv_blocks=(1e6 * np.eye(1),))
    with np.errstate(all="ignore"), pytest.raises(SingularGain) as info:
        simulate_seeds(scenario, [5, 6, 7])
    assert "at t=0.0005:" in str(info.value)
