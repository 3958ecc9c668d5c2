import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from menf import sim
from menf import (
    DimensionMismatch,
    DisturbanceSpec,
    Infeasible,
    LostPositivity,
    MenfError,
    MissingTuning,
    NonFinite,
    RiccatiCoefficients,
    Scenario,
    SingularGain,
    X0Law,
    check_hinf,
    integrate_riccati,
    laplacian_P,
    make_isolated_variant,
    realize_disturbances,
    simulate,
    simulate_error_oracle,
    simulate_runs,
    simulate_seeds,
    tune_scalar,
)
from conftest import (
    CHUA_A,
    CHUA_EDGES,
    chua_scenario,
    make_single_node_network,
    make_two_node_network,
    random_network,
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


def test_k0_within_the_symmetry_tolerance_gives_exactly_symmetric_gains():
    # Scenario stores K0 symmetrized, so every grid gain is exactly symmetric
    # and the engine's gains are integrate_riccati's bit for bit
    net = random_network(np.random.default_rng(0), 2, 2, ring=True)
    K0 = np.array([[2.0, 0.1], [0.1 + 1e-13, 2.0]])
    scenario = replace(small_scenario(net, T=0.2), K0_blocks=(K0, K0))
    traj = simulate(scenario)
    assert np.array_equal(traj.K, traj.K.swapaxes(-1, -2))
    for i, m_inv in zip(net.node_ids(), scenario.require_m_inv()):
        coeffs = RiccatiCoefficients.from_network(net, i, m_inv)
        alone = integrate_riccati(coeffs, K0, scenario.t_grid())
        assert alone.K.tobytes() == traj.K[i - 1].tobytes()


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
    assert np.array_equal(r1.w.samples(scenario.steps), r2.w.samples(scenario.steps))


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
    energy = real.w.energy(scenario.steps, scenario.dt)
    assert energy == pytest.approx(4.0 * 0.5, rel=1e-12)


@pytest.mark.parametrize(
    "start, duration",
    [(1.0, 0.5), (0.3, 0.0), (-0.5, 0.5)],
    ids=["starts-at-T", "no-duration", "ends-at-0"],
)
def test_a_pulse_with_no_step_on_the_horizon_has_no_grid_samples(start, duration):
    # no step carries it, so its energy is 0 and no grid sample carries it
    net = make_single_node_network()
    spec = DisturbanceSpec(
        kind="pulse", target="w", amplitude=2.0, start=start, duration=duration
    )
    scenario = small_scenario(net, disturbances=(spec,))
    signal = realize_disturbances(scenario).w
    assert signal.energy(scenario.steps, scenario.dt) == 0.0
    assert not signal.samples(scenario.steps).any()


def test_held_gaussian_is_square_integrable_and_held():
    net = make_single_node_network()
    spec = DisturbanceSpec(
        kind="held_gaussian", target="w", mean=0.0, std=1.0, hold=0.1
    )
    scenario = small_scenario(net, disturbances=(spec,))
    real = realize_disturbances(scenario)
    # constant within a hold window
    a, b, c = real.w.panels(0, scenario.steps)[[10, 89, 110]]
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert np.isfinite(real.w.energy(scenario.steps, scenario.dt))


@pytest.mark.parametrize(
    "T, hold", [(0.07, 0.01), (40.0, 1e-3)], ids=["extra-frame", "frame-index-roundoff"]
)
def test_held_grid_samples_carry_the_step_after_them(T, hold):
    # A held-only channel's sample at grid point k is the value held on
    # step k, and at T that of the last step. T = 0.07 is a whole number of
    # windows that T / hold in floats overshoots, and over 40 000 steps
    # t / hold in floats falls short of whole frames.
    net = make_single_node_network()
    spec = DisturbanceSpec(kind="held_gaussian", target="w", hold=hold)
    scenario = small_scenario(net, T=T, disturbances=(spec,))
    signal = realize_disturbances(scenario).w
    samples, panels = signal.samples(scenario.steps), signal.panels(0, scenario.steps)
    assert np.array_equal(samples[:-1], panels)
    assert np.array_equal(samples[-1], panels[-1])


@settings(max_examples=60, deadline=None)
@given(
    steps=st.integers(1, 200),
    hold=st.integers(1, 11),
    starts=st.lists(st.floats(-0.05, 0.2), min_size=2, max_size=2),
    durations=st.lists(st.floats(0.0, 0.1), min_size=2, max_size=2),
    cuts=st.lists(st.integers(0, 200), max_size=4),
)
def test_summed_channel_panels_split_into_blocks(steps, hold, starts, durations, cuts):
    # pulse, zero, held and pulse specs summed on one channel, the pulse
    # edges off the grid: any split of the steps into blocks reads the same
    # panels, the pulses sit on the steps between their snapped edges, and
    # the energy is dt times the sum of the squared panels
    dt = 1e-3
    net = make_single_node_network()
    held = DisturbanceSpec(kind="held_gaussian", target="w", std=0.5, hold=hold * dt, seed=5)
    pulses = [
        DisturbanceSpec(kind="pulse", target="w", amplitude=amp, start=start, duration=duration)
        for amp, start, duration in zip((0.7, -1.3), starts, durations)
    ]
    specs = (pulses[0], DisturbanceSpec(kind="zero", target="w"), held, pulses[1])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        signal = realize_disturbances(small_scenario(net, T=steps * dt, disturbances=specs)).w
    panels = signal.panels(0, steps)
    bounds = [0, *sorted(min(c, steps) for c in cuts), steps]
    blocks = [signal.panels(a, b) for a, b in zip(bounds, bounds[1:])]
    assert np.array_equal(np.concatenate(blocks), panels)

    k = np.arange(steps)[:, None]
    ref = np.zeros((steps, 1))
    for spec in specs:
        if spec.kind == "pulse":
            a, b = round(spec.start / dt), round((spec.start + spec.duration) / dt)
            ref = ref + np.where((a <= k) & (k < b), spec.amplitude, 0.0)
        elif spec.kind == "held_gaussian":
            alone = small_scenario(net, T=steps * dt, disturbances=(spec,))
            ref = ref + realize_disturbances(alone).w.panels(0, steps)
    assert np.array_equal(panels, ref)
    assert signal.energy(steps, dt) == pytest.approx(dt * float(np.sum(panels**2)), rel=1e-12)


def test_a_node_or_edge_on_a_target_that_takes_none_is_rejected():
    # it would key the channel's noise stream: two eps channels carrying
    # node 1 drew identical frames
    with pytest.raises(DimensionMismatch, match="'v'"):
        DisturbanceSpec(kind="held_gaussian", target="eps", edge=(1, 3), node=1)
    with pytest.raises(DimensionMismatch, match="'eps'"):
        DisturbanceSpec(kind="held_gaussian", target="v", node=1, edge=(1, 3))
    with pytest.raises(DimensionMismatch, match="'v'"):
        DisturbanceSpec(kind="pulse", target="w", node=1)


def test_error_oracle_trivial_zero():
    from menf import NodeModel, build_network

    base = make_two_node_network(n=2, seed=4)
    nodes = [
        NodeModel(C=node.C, D=node.D, xi=np.zeros(2), Xcal=node.Xcal, links=dict(node.links))
        for node in base.nodes
    ]
    net = build_network(base.plant, nodes, base.edges)
    scenario = small_scenario(net, T=1.0, x0=np.zeros(2))
    out = simulate_error_oracle(scenario, realize_disturbances(scenario))
    # no disturbances and xi_i = x0, so e(0) = 0: stays identically zero
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
    steps = scenario.steps
    assert np.array_equal(r_full.w.samples(steps), r_iso.w.samples(steps))
    assert np.array_equal(r_full.eps[(3, 2)].samples(steps), r_iso.eps[(3, 2)].samples(steps))


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


def test_nan_stage_gain_is_a_singular_gain():
    # -inf in A: the second RK4 stage gain is +inf, which factors, and the
    # third is NaN, whose NaN pivot fails like a negative one, before the
    # gain at the next grid point turns non-finite
    net = make_single_node_network(a=-np.inf)
    exc = _run_failing(_failing_scenario(net, [np.zeros((1, 1))], [0.0]), SingularGain)
    assert "at t=0.0005: stage gain of node 1 " in str(exc)


def test_oracle_and_engine_fail_alike_on_a_nan_stage_gain():
    # the set-up of test_nan_stage_gain_is_a_singular_gain: the oracle's own
    # Cholesky solve must reject the NaN stage gain as the engine does
    net = make_single_node_network(a=-np.inf)
    scenario = _failing_scenario(net, [np.zeros((1, 1))], [0.0])
    engine = _run_failing(scenario, SingularGain)
    with np.errstate(all="ignore"), pytest.raises(SingularGain) as info:
        simulate_error_oracle(scenario, realize_disturbances(scenario))
    assert info.value.detail.split(":")[0] == engine.detail.split(":")[0] == "at t=0.0005"


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
    net = random_network(rng, N, n)
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
    net = random_network(rng, N, n)
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
        # the batch stops at the first overflow, so the failed seed warns no
        # further, and only the seed before it is run again
        assert len(caught) <= late_warnings + early_warnings


def test_simulate_seeds_gain_failure_beats_later_state_failure():
    # the shared gain fails at t = 0.0005 for every seed, before any state
    # overflows, so the batch raises the first seed's SingularGain
    net = make_single_node_network(a=500.0)
    scenario = replace(_blow_up_scenario(), network=net, m_inv_blocks=(1e6 * np.eye(1),))
    with np.errstate(all="ignore"), pytest.raises(SingularGain) as info:
        simulate_seeds(scenario, [5, 6, 7])
    assert "at t=0.0005:" in str(info.value)


# ---------------------------------------------------------------------------
# simulate_runs: gain variants in one pass
# ---------------------------------------------------------------------------

def _random_scenario(rng, net, seed, T=0.05):
    return Scenario(
        network=net,
        T=T,
        dt=1e-3,
        seed=seed,
        x0_law=X0Law(kind="gaussian", mean=0.0, std=1.0),
        disturbances=_random_channels(rng, net, 1e-3),
        m_inv_blocks=tuple(0.01 * np.eye(net.n) for _ in range(net.N)),
    )


@settings(max_examples=20, deadline=None)
@given(
    N=st.integers(1, 4),
    n=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 2),
    node=st.integers(1, 4),
    order=st.permutations(range(4)),
)
def test_simulate_runs_equals_one_run_per_scenario(N, n, seed, node, order):
    # a network, its isolated variant and a second seed of each, in any order
    rng = np.random.default_rng(seed)
    scenario = _random_scenario(rng, random_network(rng, N, n), seed)
    isolated = make_isolated_variant(scenario, min(node, N))
    pool = [scenario, isolated, replace(scenario, seed=seed + 1), replace(isolated, seed=seed + 1)]
    batch = [pool[k] for k in order]
    runs = simulate_runs(batch)
    assert len(runs) == len(batch)
    for sc, run in zip(batch, runs):
        _assert_same_run(run, simulate(sc))
    # runs of one gain variant share its read-only gains, and only those
    for a, ka in zip(order, runs):
        for b, kb in zip(order, runs):
            assert (ka.K is kb.K) == (a % 2 == b % 2)
        assert not ka.K.flags.writeable


def test_simulate_runs_reports_each_variants_own_gain_minimum(chua_tuning):
    # on Chua, isolating node 1 lowers the smallest gain eigenvalue by 0.057
    scenario = replace(chua_scenario(0, chua_tuning), T=0.5)
    batch = [scenario, make_isolated_variant(scenario, 1)]
    runs = simulate_runs(batch)
    own = [simulate(sc).hypotheses for sc in batch]
    assert [run.hypotheses for run in runs] == own
    assert own[0]["min_gain_eigenvalue"] > own[1]["min_gain_eigenvalue"] + 0.05


@pytest.mark.parametrize(
    "change, what",
    [
        (lambda sc: replace(sc, dt=2e-3), "dt"),
        (lambda sc: replace(sc, T=0.1), "T"),
        (
            lambda sc: replace(
                sc, network=make_two_node_network(n=1), m_inv_blocks=sc.m_inv_blocks * 2
            ),
            "N",
        ),
        (lambda sc: replace(sc, network=make_single_node_network(a=-2.0)), "plant A"),
    ],
)
def test_simulate_runs_rejects_runs_that_do_not_share_the_grid(change, what):
    scenario = _failing_scenario(make_single_node_network(), [np.zeros((1, 1))], [0.0], T=0.05)
    with pytest.raises(DimensionMismatch, match=f"run 1 differs from run 0 in {what};"):
        simulate_runs([scenario, change(scenario)])


def _sequential_failure_of(scenarios):
    with np.errstate(all="ignore"):
        try:
            [simulate(sc) for sc in scenarios]
        except MenfError as exc:
            return exc
    raise AssertionError("no run failed")


def _variant_failure_batches():
    # A: x overflows at a seed-dependent t > 1 s. B: the same plant with an
    # M^-1 whose gain fails at t = 0.0005. C: its gain loses positivity at
    # t = 0.277; F: the same plant with a larger M^-1, whose gain fails
    # earlier, at t = 0.0465; D: the same plant with gains that stay
    # positive definite.
    a = _blow_up_scenario()
    b = replace(a, seed=1, m_inv_blocks=(1e6 * np.eye(1),))
    net = make_single_node_network(a=50.0)
    c = _failing_scenario(net, [np.eye(1)], [0.0])
    d = _failing_scenario(net, [np.zeros((1, 1))], [0.0])
    f = _failing_scenario(net, [2.0 * np.eye(1)], [0.0])
    # G: x overflows at t = 0.029 from a fixed x0, found by scanning (x0
    # from about 4e298 to 6e298 overflows at that step); H: its plant with
    # an M^-1 whose gain loses positivity at the same step, after G's state.
    fast = make_single_node_network(a=500.0)
    g = _failing_scenario(fast, [np.zeros((1, 1))], [5e298], T=0.2)
    h = _failing_scenario(fast, [np.eye(1)], [0.0], T=0.2)
    return {
        "A-B": ([a, b], NonFinite),
        "B-A": ([b, a], SingularGain),
        "A-B-A": ([a, b, replace(a, seed=3)], NonFinite),
        "D-C": ([d, c], LostPositivity),
        "C-D": ([c, d], LostPositivity),
        "D-C-D": ([d, c, replace(d, seed=2)], LostPositivity),
        # F fails first, so D and C run again, and C's failure stops that
        # batch, which runs D once more
        "D-C-F": ([d, c, f], LostPositivity),
        "D-F-C": ([d, f, c], SingularGain),
        # G's state and H's gain fail at the same grid point: G's comes first
        "G-H": ([g, h], NonFinite),
    }


@pytest.mark.parametrize("name", list(_variant_failure_batches()))
def test_simulate_runs_variant_gain_failure_matches_sequential_runs(name):
    """A batch raises what the first failing run would raise on its own:
    it stops at its first failure, a state's or a gain variant's, and runs
    again only the runs before the one that failed."""
    batch, kind = _variant_failure_batches()[name]
    expected = _sequential_failure_of(batch)
    assert type(expected) is kind
    with np.errstate(all="ignore"), pytest.raises(type(expected)) as info:
        simulate_runs(batch)
    assert str(info.value) == str(expected)
    for attr in ("t", "min_eigenvalue"):
        assert getattr(info.value, attr, None) == getattr(expected, attr, None)


@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_simulate_runs_raises_what_the_sequential_runs_raise(data):
    """The failure rule over more batches: 2 to 4 runs drawn from one
    grid-compatible group of the scenarios above, {A, B}, {C, D, F} or
    {G, H}, each with a fresh seed."""
    batches = _variant_failure_batches()
    group = data.draw(st.sampled_from([batches[name][0] for name in ("A-B", "D-C-F", "G-H")]))
    members = data.draw(st.lists(st.sampled_from(group), min_size=2, max_size=4))
    seeds = data.draw(st.lists(st.integers(0, 2**32 - 1), min_size=len(members),
                               max_size=len(members)))
    batch = [replace(sc, seed=s) for sc, s in zip(members, seeds)]
    try:
        expected = _sequential_failure_of(batch)
    except AssertionError:
        reject()  # only D drawn: no run fails
    with np.errstate(all="ignore"), pytest.raises(type(expected)) as info:
        simulate_runs(batch)
    assert str(info.value) == str(expected)
    for attr in ("t", "min_eigenvalue"):
        assert getattr(info.value, attr, None) == getattr(expected, attr, None)


def test_a_failing_batch_runs_again_only_the_runs_before_its_first_failure(monkeypatch):
    # the early seed overflows first: first in the batch, nothing runs again;
    # second, the late seed before it runs again, and fails on its own
    scenario = _blow_up_scenario()
    x0 = {s: abs(realize_disturbances(replace(scenario, seed=s)).x0[0]) for s in range(40)}
    late, early = min(x0, key=x0.get), max(x0, key=x0.get)
    engine, calls = sim.simulate_runs, []

    def recorder(scenarios):
        scenarios = list(scenarios)
        if scenarios:  # an empty batch runs nothing
            calls.append([sc.seed for sc in scenarios])
        return engine(scenarios)

    monkeypatch.setattr(sim, "simulate_runs", recorder)
    for seeds, again in (([early, late], []), ([late, early], [[late]])):
        calls.clear()
        with np.errstate(all="ignore"), pytest.raises(NonFinite):
            sim.simulate_runs([replace(scenario, seed=s) for s in seeds])
        assert calls == [seeds] + again


def test_simulate_runs_raises_configuration_errors_before_any_run():
    # run 0 alone would overflow at t > 1 s; run 1 has no M^-1 to integrate
    a = _blow_up_scenario()
    batch = [a, replace(a, seed=1, m_inv_blocks=None)]
    assert type(_sequential_failure_of(batch)) is NonFinite
    with pytest.raises(MissingTuning):
        simulate_runs(batch)


def _random_pulses(rng, net, dt):
    """A pulse on most channels, each with its own amplitude and support."""
    where = [{"target": "w"}]
    where += [{"target": "v", "node": i} for i in net.node_ids()]
    where += [{"target": "eps", "edge": e} for e in net.edges]
    return tuple(
        DisturbanceSpec(
            kind="pulse", amplitude=float(rng.uniform(-2, 2)),
            start=int(rng.integers(0, 100)) * dt, duration=int(rng.integers(1, 100)) * dt,
            **loc,
        )
        for loc in where
        if rng.random() < 0.7
    )


@settings(max_examples=10, deadline=None)
@given(N=st.integers(1, 4), n=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_certified_tuning_meets_the_attenuation_bound(N, n, seed):
    """The theorem as a property: on a strongly connected network where
    tune_scalar certifies M and the gains stay positive definite, every run
    keeps int e^T P e dt within its disturbance budget."""
    rng = np.random.default_rng(seed)
    net = random_network(rng, N, n, ring=True)
    P = laplacian_P(net, np.eye(n), ridge=0.01)
    dt = 1e-3
    try:
        tuning = tune_scalar(net, P)
        batch = [
            Scenario(
                network=net, T=0.3, dt=dt, seed=s,
                x0_law=X0Law(kind="gaussian", mean=0.0, std=1.0),
                disturbances=_random_pulses(rng, net, dt),
                m_inv_blocks=tuning.m_inv_blocks, minv_margin=tuning.minv_margin,
            )
            for s in range(3)
        ]
        runs = simulate_runs(batch)
    except (Infeasible, LostPositivity, SingularGain):
        reject()  # outside the theorem's hypotheses
    for scenario, traj in zip(batch, runs):
        report = check_hinf(scenario, traj, P)
        assert report.slack >= 0.0, (report.slack, report.rhs)
