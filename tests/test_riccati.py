from dataclasses import replace

import numpy as np
import pytest

from menf import (
    LostPositivity,
    NoStabilizingSolution,
    NotStabilizable,
    PreconditionViolated,
    RiccatiCoefficients,
    SingularGain,
    assemble_global,
    integrate_global_riccati,
    integrate_riccati,
    riccati_rhs,
    simulate,
    solve_are_stabilizing,
    verify_prop1_limit,
)
from menf.riccati import stable_are_solution

from conftest import chua_scenario

def scalar_coeffs(a, q, s):
    """n=1 coefficients with the whole constant term in obs_info."""
    return RiccatiCoefficients(
        A=np.array([[a]]),
        Q=np.array([[q]]),
        obs_info=np.array([[s]]),
        comm_info=np.zeros((1, 1)),
        m_inv=np.zeros((1, 1)),
    )


def scalar_closed_form(a, q, s, k0, t):
    """Exact solution of kdot = -q k^2 + s - 2 a k (partial fractions)."""
    disc = np.sqrt(a * a + q * s)
    r1 = (-a + disc) / q
    r2 = (-a - disc) / q
    c0 = (k0 - r1) / (k0 - r2)
    decay = c0 * np.exp(-2.0 * disc * np.asarray(t))
    return (r1 - r2 * decay) / (1.0 - decay)


def elementwise_rhs_oracle(K, A, Q, const):
    """Independent index-by-index evaluation of the gain equation."""
    n = K.shape[0]
    out = np.zeros((n, n))
    for r in range(n):
        for c in range(n):
            acc = const[r, c]
            for i in range(n):
                for j in range(n):
                    acc -= K[r, i] * Q[i, j] * K[j, c]
            for i in range(n):
                acc -= A[i, r] * K[i, c] + K[r, i] * A[i, c]
            out[r, c] = acc
    return 0.5 * (out + out.T)


def test_rhs_scalar_fixed_point():
    # a=0, q=1, s=1, K=1: -1 + 1 = 0
    coeffs = scalar_coeffs(0.0, 1.0, 1.0)
    assert riccati_rhs(np.array([[1.0]]), coeffs)[0, 0] == pytest.approx(0.0, abs=1e-15)


def test_rk4_steps_preserve_symmetry():
    # riccati_rhs is not exactly symmetric in floating point; every accepted
    # step is re-symmetrized instead.
    rng = np.random.default_rng(3)
    A = rng.standard_normal((4, 4))
    Q = np.eye(4) * 0.5
    coeffs = RiccatiCoefficients(
        A=A, Q=Q, obs_info=np.eye(4), comm_info=np.zeros((4, 4)), m_inv=np.zeros((4, 4))
    )
    K = rng.standard_normal((4, 4))
    K = K @ K.T + np.eye(4)
    traj = integrate_riccati(coeffs, K, np.arange(0, 0.01 + 1e-12, 1e-3))
    assert np.array_equal(traj.K, np.swapaxes(traj.K, 1, 2))


def test_rhs_chua_node3_vs_elementwise_oracle(chua_net, chua_tuning):
    coeffs = RiccatiCoefficients.from_network(
        chua_net, 3, chua_tuning.m_inv_blocks[2]
    )
    K = 10.0 * np.eye(3)
    expected = elementwise_rhs_oracle(K, coeffs.A, coeffs.Q, coeffs.S)
    np.testing.assert_allclose(riccati_rhs(K, coeffs), expected, rtol=0, atol=1e-12)


def test_integrate_matches_scalar_closed_form():
    a, q, s, k0 = -0.3, 0.8, 1.7, 2.0
    t = np.arange(0, 5.0 + 1e-12, 1e-3)
    traj = integrate_riccati(scalar_coeffs(a, q, s), np.array([[k0]]), t)
    exact = scalar_closed_form(a, q, s, k0, t)
    assert np.max(np.abs(traj.K[:, 0, 0] - exact)) <= 1e-8
    # frozen oracle value at the endpoint
    assert traj.K[-1, 0, 0] == pytest.approx(1.8802000014171072, abs=1e-9)


def test_integrate_stationary_at_are_limit(chua_net, chua_tuning):
    coeffs = RiccatiCoefficients.from_network(chua_net, 2, chua_tuning.m_inv_blocks[1])
    are = solve_are_stabilizing(coeffs.A, chua_net.plant.B, coeffs.S)
    K0 = are.gain_limit()
    t = np.arange(0, 10.0 + 1e-12, 1e-3)
    traj = integrate_riccati(coeffs, K0, t)
    drift = np.linalg.norm(traj.K[-1] - K0) / np.linalg.norm(K0)
    assert drift <= 1e-9


def test_integrate_lost_positivity_for_large_penalty(chua_net, chua_tuning):
    # node 1 with a crushing attenuation demand leaves the positive cone
    coeffs = RiccatiCoefficients.from_network(chua_net, 1, 12.0 * np.eye(3))
    t = np.arange(0, 10.0 + 1e-12, 1e-3)
    with pytest.raises(LostPositivity) as exc:
        integrate_riccati(coeffs, 10.0 * np.eye(3), t)
    assert 0.0 < exc.value.t < 1.0
    # The coupled engine steps the same gains and also factors their RK4
    # stages, so it fails in the same step, at its midpoint stage.
    scenario = chua_scenario(0, chua_tuning, disturbances="zero")
    m_inv = (12.0 * np.eye(3),) + tuple(chua_tuning.m_inv_blocks[1:])
    with pytest.raises(SingularGain) as engine_exc:
        simulate(replace(scenario, T=1.0, m_inv_blocks=m_inv))
    assert f"at t={exc.value.t - 0.5e-3:.6g}:" in str(engine_exc.value)


def test_integrate_matches_engine_gains(chua_net, chua_tuning):
    # one gain stepper: a node's gain on its own is bit for bit the engine's
    scenario = replace(chua_scenario(0, chua_tuning), T=1.0)
    traj = simulate(scenario)
    for i in chua_net.node_ids():
        coeffs = RiccatiCoefficients.from_network(
            chua_net, i, chua_tuning.m_inv_blocks[i - 1]
        )
        alone = integrate_riccati(coeffs, 10.0 * np.eye(3), scenario.t_grid())
        assert np.array_equal(alone.K, traj.K[i - 1])


def test_rk4_order_on_scalar_closed_form():
    a, q, s, k0 = -0.3, 0.8, 1.7, 2.0

    def max_err(dt):
        t = np.arange(0, 5.0 + dt / 2, dt)
        traj = integrate_riccati(scalar_coeffs(a, q, s), np.array([[k0]]), t)
        return np.max(np.abs(traj.K[:, 0, 0] - scalar_closed_form(a, q, s, k0, t)))

    ratio = max_err(0.025) / max_err(0.0125)
    assert 12.0 <= ratio <= 20.0


def test_global_riccati_block_decoupling(chua_net, chua_tuning):
    gm = assemble_global(chua_net)
    t = np.arange(0, 1.0 + 1e-12, 1e-3)
    K0_blocks = [10.0 * np.eye(3)] * 5
    stacked = integrate_global_riccati(
        chua_net, gm, K0_blocks, t, chua_tuning.m_inv_blocks
    )
    worst_block = 0.0
    worst_off = 0.0
    for i in range(5):
        coeffs = RiccatiCoefficients.from_network(
            chua_net, i + 1, chua_tuning.m_inv_blocks[i]
        )
        per_node = integrate_riccati(coeffs, K0_blocks[i], t)
        sl = slice(3 * i, 3 * i + 3)
        worst_block = max(
            worst_block,
            float(np.max(np.linalg.norm(stacked.K[:, sl, sl] - per_node.K, axis=(1, 2)))),
        )
        for j in range(5):
            if j != i:
                worst_off = max(
                    worst_off,
                    float(np.max(np.abs(stacked.K[:, sl, 3 * j:3 * j + 3]))),
                )
    assert worst_block <= 1e-10
    assert worst_off <= 1e-12


def test_global_riccati_single_node_degenerates():
    from conftest import make_single_node_network

    net = make_single_node_network()
    gm = assemble_global(net)
    t = np.arange(0, 2.0 + 1e-12, 1e-3)
    m_inv = [np.zeros((1, 1))]
    stacked = integrate_global_riccati(net, gm, [np.eye(1)], t, m_inv)
    coeffs = RiccatiCoefficients.from_network(net, 1, m_inv[0])
    single = integrate_riccati(coeffs, np.eye(1), t)
    np.testing.assert_allclose(stacked.K, single.K, rtol=0, atol=1e-15)


def test_are_scalar_quadratic_formula():
    # a=-1, s=1, q=1: z+ = -1 + sqrt(2), closed loop -sqrt(2)
    sol = solve_are_stabilizing(
        np.array([[-1.0]]), np.array([[1.0]]), np.array([[1.0]])
    )
    assert sol.Zplus[0, 0] == pytest.approx(np.sqrt(2.0) - 1.0, abs=1e-12)
    assert sol.closed_loop_spectral_abscissa == pytest.approx(-np.sqrt(2.0), abs=1e-10)


def test_are_reduces_to_lyapunov_for_zero_s():
    # S=0, A Hurwitz: A Z + Z A' + B B' = 0; Kronecker solve as the oracle
    rng = np.random.default_rng(11)
    n = 4
    A = rng.standard_normal((n, n))
    A = A - (np.max(np.linalg.eigvals(A).real) + 1.0) * np.eye(n)
    B = rng.standard_normal((n, 2))
    sol = solve_are_stabilizing(A, B, np.zeros((n, n)))
    kron = np.kron(A, np.eye(n)) + np.kron(np.eye(n), A)
    z_vec = np.linalg.solve(kron, -(B @ B.T).reshape(-1))
    np.testing.assert_allclose(sol.Zplus, z_vec.reshape(n, n), rtol=1e-9, atol=1e-11)


def test_are_residual_contract(chua_net, chua_tuning):
    for i in chua_net.node_ids():
        coeffs = RiccatiCoefficients.from_network(
            chua_net, i, chua_tuning.m_inv_blocks[i - 1]
        )
        sol = solve_are_stabilizing(coeffs.A, chua_net.plant.B, coeffs.S)
        assert sol.residual <= 1e-8 * (1.0 + np.linalg.norm(sol.Zplus) ** 2)
        assert sol.closed_loop_spectral_abscissa < 0


def test_are_imaginary_axis_detected():
    # scalar a>0 with S<0 strong enough that a^2 + S q < 0
    with pytest.raises(NoStabilizingSolution):
        solve_are_stabilizing(
            np.array([[0.2]]), np.array([[1.0]]), np.array([[-1.0]])
        )


def test_are_unstabilizable_rejected():
    # second mode unstable and uncontrollable
    A = np.array([[-1.0, 0.0], [0.0, 0.5]])
    B = np.array([[1.0], [0.0]])
    with pytest.raises(NotStabilizable):
        solve_are_stabilizing(A, B, np.eye(2))


def test_prop1_zero_gap_at_limit():
    sol = solve_are_stabilizing(
        np.array([[-1.0]]), np.array([[1.0]]), np.array([[1.0]])
    )
    coeffs = scalar_coeffs(-1.0, 1.0, 1.0)
    t = np.arange(0, 5.0 + 1e-12, 1e-3)
    traj = integrate_riccati(coeffs, sol.gain_limit(), t)
    report = verify_prop1_limit(traj, sol)
    assert report.relative_gap_final <= 1e-9
    assert report.k0_dominates


def test_prop1_scalar_monotone_decay():
    sol = solve_are_stabilizing(
        np.array([[-1.0]]), np.array([[1.0]]), np.array([[1.0]])
    )
    coeffs = scalar_coeffs(-1.0, 1.0, 1.0)
    t = np.arange(0, 8.0 + 1e-12, 1e-3)
    K0 = sol.gain_limit() + np.array([[2.0]])
    traj = integrate_riccati(coeffs, K0, t)
    report = verify_prop1_limit(traj, sol)
    assert report.relative_gap_final < 1e-6
    assert report.monotone_fraction == pytest.approx(1.0)
    assert report.nonincreasing_after == 0.0


def test_prop1_precondition_enforced():
    sol = solve_are_stabilizing(
        np.array([[-1.0]]), np.array([[1.0]]), np.array([[1.0]])
    )
    coeffs = scalar_coeffs(-1.0, 1.0, 1.0)
    t = np.arange(0, 1.0 + 1e-12, 1e-3)
    K0 = 0.5 * sol.gain_limit()  # strictly below the limit
    traj = integrate_riccati(coeffs, K0, t)
    with pytest.raises(PreconditionViolated):
        verify_prop1_limit(traj, sol)
    report = verify_prop1_limit(traj, sol, enforce_precondition=False)
    assert not report.k0_dominates


def test_near_axis_hamiltonian_raises_no_stabilizing_solution():
    # A cap-bisection step on one of perfbench's tune-sweep networks (seed
    # 101): every eigenvalue of H has a real part of order 1e-15. The sorted
    # Schur decomposition of this H raises LinAlgError ("eigenvalues do not
    # satisfy the sort condition"), so the axis test must come before it.
    A = np.array([
        [-3.341930401795378, 9.859421033341572, 0.0],
        [1.009127818522941, -0.9794328561196928, 1.0422725686422916],
        [0.0, -14.667973839894007, 0.0],
    ])
    Q = 0.13872081490237975 * np.eye(3)
    S = np.array([
        [-8709.670958307208, -166.9439724575893, 2557.387315707238],
        [-166.9439724575893, -9970.247568113284, -332.9460534868671],
        [2557.387315707238, -332.9460534868671, -4891.63603955225],
    ])
    with pytest.raises(NoStabilizingSolution, match="imaginary axis"):
        stable_are_solution(A, Q, S)
