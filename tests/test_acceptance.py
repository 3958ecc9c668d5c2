"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured quantity at its pinned tolerance. Run with `pytest -s` to see
the lines as they pass.
"""

import time

import numpy as np
import pytest

from menf import (
    RiccatiCoefficients,
    assemble_global,
    check_hinf,
    check_minv,
    consensus_cost,
    integrate_global_riccati,
    integrate_riccati,
    laplacian_P,
    lhs_cost,
    make_isolated_variant,
    node_feasible,
    simulate,
    simulate_error_oracle,
    solve_are_stabilizing,
    verify_prop1_limit,
)

from conftest import chua_scenario

N_SEEDS = 10
LAST_SECOND = 9.0


def _max_inf_last_second(traj, node_idx):
    window = traj.t >= LAST_SECOND
    return float(np.max(np.abs(traj.e[node_idx][window])))


@pytest.fixture(scope="module")
def networked_runs(chua_tuning):
    runs = []
    for seed in range(N_SEEDS):
        scenario = chua_scenario(seed, chua_tuning)
        start = time.perf_counter()
        traj = simulate(scenario)
        runs.append((seed, scenario, traj, time.perf_counter() - start))
    return runs


def test_criterion_01_chua_reproduction(networked_runs):
    worst_value = 0.0
    worst_runtime = 0.0
    for seed, _, traj, runtime in networked_runs:
        value = max(_max_inf_last_second(traj, i) for i in range(5))
        assert value <= 1e-2, f"seed {seed}: settle value {value:.3e} > 1e-2"
        assert runtime <= 30.0, f"seed {seed}: runtime {runtime:.1f}s > 30s"
        worst_value = max(worst_value, value)
        worst_runtime = max(worst_runtime, runtime)
    print(
        f"\nACCEPTANCE 1 PASS: Chua reproduction, {N_SEEDS} seeds, "
        f"max_i sup_[9,10] |e_i|_inf <= {worst_value:.3e} (tol 1e-2), "
        f"max runtime {worst_runtime:.1f}s (tol 30s)"
    )


def test_criterion_02_internal_stability(chua_tuning):
    scenario = chua_scenario(123, chua_tuning, disturbances="zero")
    traj = simulate(scenario)
    e0 = float(np.linalg.norm(traj.e[:, 0, :]))
    eT = float(np.linalg.norm(traj.e[:, -1, :]))
    assert e0 > 0  # xi_i != x0
    ratio = eT / e0
    assert ratio <= 1e-3
    print(
        f"\nACCEPTANCE 2 PASS: internal stability, |e(10)|/|e(0)| = {ratio:.3e} "
        f"(tol 1e-3)"
    )


def test_criterion_03_hinf_bound(chua_tuning, chua_P):
    slacks = []
    for k in range(20):
        rng = np.random.default_rng(1000 + k)
        if k % 2 == 0:
            scenario = chua_scenario(
                2000 + k,
                chua_tuning,
                disturbances="pulse",
                amplitude=float(rng.uniform(0.5, 1.5)),
            )
        else:
            scenario = chua_scenario(
                2000 + k,
                chua_tuning,
                disturbances="held_gaussian",
                std=float(rng.uniform(0.5, 1.5)),
            )
        traj = simulate(scenario)
        report = check_hinf(scenario, traj, chua_P)
        assert report.slack >= 0.0, f"run {k}: slack {report.slack:.4g} < 0"
        slacks.append(report.slack)
    print(
        f"\nACCEPTANCE 3 PASS: attenuation bound, 20 runs (pulse + held-gaussian), "
        f"slack in [{min(slacks):.3g}, {max(slacks):.3g}], all >= 0"
    )


def test_criterion_04_prop1_limit(chua_net, chua_tuning):
    t_grid = np.arange(0, 10.0 + 1e-12, 1e-3)
    worst_gap = 0.0
    dominance = []
    for i in chua_net.node_ids():
        coeffs = RiccatiCoefficients.from_network(
            chua_net, i, chua_tuning.m_inv_blocks[i - 1]
        )
        are = solve_are_stabilizing(coeffs.A, chua_net.plant.B, coeffs.S)
        assert are.residual <= 1e-8 * (1.0 + np.linalg.norm(are.Zplus) ** 2)
        assert are.closed_loop_spectral_abscissa < 0.0
        traj = integrate_riccati(coeffs, 10.0 * np.eye(3), t_grid)
        report = verify_prop1_limit(traj, are, enforce_precondition=False)
        assert report.relative_gap_final <= 1e-3, (
            f"node {i}: gap {report.relative_gap_final:.3e} > 1e-3"
        )
        worst_gap = max(worst_gap, report.relative_gap_final)
        dominance.append(report.k0_dominates)
    print(
        f"\nACCEPTANCE 4 PASS: gain limit, max relative gap {worst_gap:.3e} "
        f"(tol 1e-3); K(0)=10I dominates (Z+)^-1 per node: {dominance} "
        f"(reported, not enforced)"
    )


def test_criterion_05_error_dynamics_oracle(chua_run):
    scenario, traj = chua_run
    oracle = simulate_error_oracle(scenario, traj.realization)
    deviation = float(np.max(np.abs(oracle.e - traj.e)))
    assert deviation <= 1e-8
    print(
        f"\nACCEPTANCE 5 PASS: error-dynamics oracle, max deviation "
        f"{deviation:.3e} (tol 1e-8)"
    )


def test_criterion_06_stacked_riccati_equivalence(chua_net, chua_tuning):
    t_grid = np.arange(0, 10.0 + 1e-12, 1e-3)
    gm = assemble_global(chua_net, chua_tuning.M_blocks)
    K0_blocks = [10.0 * np.eye(3)] * 5
    stacked = integrate_global_riccati(
        chua_net, gm, K0_blocks, t_grid, chua_tuning.m_inv_blocks
    )
    worst = 0.0
    for i in range(5):
        coeffs = RiccatiCoefficients.from_network(
            chua_net, i + 1, chua_tuning.m_inv_blocks[i]
        )
        per_node = integrate_riccati(coeffs, K0_blocks[i], t_grid)
        sl = slice(3 * i, 3 * i + 3)
        dev = float(
            np.max(np.linalg.norm(stacked.K[:, sl, sl] - per_node.K, axis=(1, 2)))
        )
        worst = max(worst, dev)
    assert worst <= 1e-9
    print(
        f"\nACCEPTANCE 6 PASS: stacked/per-node gain equivalence, max block "
        f"Frobenius deviation {worst:.3e} (tol 1e-9)"
    )


def test_criterion_07_consensus_cost_identity(networked_runs):
    P0 = np.eye(3)
    worst = 0.0
    for seed, scenario, traj, _ in networked_runs:
        P = laplacian_P(scenario.network, P0, ridge=0.0)
        a = consensus_cost(traj, P0)
        b = lhs_cost(traj, P)
        rel = abs(a - b) / max(abs(a), 1e-300)
        assert rel <= 1e-9, f"seed {seed}: relative deviation {rel:.3e}"
        worst = max(worst, rel)
    print(
        f"\nACCEPTANCE 7 PASS: consensus-cost identity on {N_SEEDS} trajectories, "
        f"max relative deviation {worst:.3e} (tol 1e-9)"
    )


def test_criterion_08_tuning_certificates(chua_net, chua_P, chua_tuning):
    # independent re-verification, outside the tuner's own code path
    gm = assemble_global(chua_net, chua_tuning.M_blocks)
    margin = check_minv(gm, chua_tuning.M_blocks, chua_P)
    assert margin > 0.0
    lmi_margins = []
    for i in chua_net.node_ids():
        cert = node_feasible(
            chua_net.plant,
            chua_net.node(i),
            chua_net.delta_block(i),
            chua_tuning.m_inv_blocks[i - 1],
        )
        assert cert.feasible and cert.lmi_margin < -1e-10
        lmi_margins.append(cert.lmi_margin)
    print(
        f"\nACCEPTANCE 8 PASS: tuning certificates, stacked margin {margin:.4g} > 0, "
        f"node LMI margins {['%.1e' % m for m in lmi_margins]} all < -1e-10 "
        f"(M^-1 levels {[round(m, 3) for m in chua_tuning.mu_profile]})"
    )


def test_criterion_09_network_benefit(networked_runs):
    worst_ratio = np.inf
    for seed, scenario, traj, _ in networked_runs:
        networked = _max_inf_last_second(traj, 0)
        iso_traj = simulate(make_isolated_variant(scenario, 1))
        isolated = _max_inf_last_second(iso_traj, 0)
        ratio = isolated / max(networked, 1e-300)
        assert ratio >= 10.0, f"seed {seed}: isolation ratio {ratio:.2f} < 10"
        worst_ratio = min(worst_ratio, ratio)
    print(
        f"\nACCEPTANCE 9 PASS: network benefit, isolated node 1 error at least "
        f"{worst_ratio:.3g}x the networked value on every seed (tol 10x)"
    )


def test_criterion_10_numerical_scheme(tmp_path):
    # RK4 order on the scalar closed-form gain equation
    a, q, s, k0 = -0.3, 0.8, 1.7, 2.0

    def closed_form(t):
        disc = np.sqrt(a * a + q * s)
        r1, r2 = (-a + disc) / q, (-a - disc) / q
        c0 = (k0 - r1) / (k0 - r2)
        decay = c0 * np.exp(-2.0 * disc * t)
        return (r1 - r2 * decay) / (1.0 - decay)

    def max_err(dt):
        t = np.arange(0, 5.0 + dt / 2, dt)
        coeffs = RiccatiCoefficients(
            A=np.array([[a]]),
            Q=np.array([[q]]),
            obs_info=np.array([[s]]),
            comm_info=np.zeros((1, 1)),
            m_inv=np.zeros((1, 1)),
        )
        traj = integrate_riccati(coeffs, np.array([[k0]]), t)
        return float(np.max(np.abs(traj.K[:, 0, 0] - closed_form(t))))

    ratio = max_err(0.025) / max_err(0.0125)
    assert 12.0 <= ratio <= 20.0

    # determinism: repeated CLI runs give byte-identical CSVs
    from menf.cli import main
    from menf.scenario_io import bundled_chua_text

    scen = tmp_path / "chua.scenario"
    scen.write_text(bundled_chua_text(), encoding="utf-8")
    tuned = tmp_path / "tuned.yaml"
    assert main(["tune", str(scen), "--out", str(tuned)]) == 0
    dirs = [tmp_path / "d1", tmp_path / "d2"]
    for d in dirs:
        assert main([
            "simulate", str(scen), "--out", str(d), "--seed", "5", "--tuned", str(tuned)
        ]) == 0
    checked = 0
    for name in sorted(p.name for p in dirs[0].glob("*.csv")):
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes(), name
        checked += 1
    assert checked >= 20
    print(
        f"\nACCEPTANCE 10 PASS: RK4 error ratio {ratio:.2f} in [12, 20]; "
        f"{checked} CSV files byte-identical across repeated seeds"
    )
