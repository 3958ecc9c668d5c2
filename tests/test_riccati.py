from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

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
from menf.linalg import DEF_TOL, symmetrize
from menf.riccati import (
    ARE_TOL_SCALE,
    IMAG_AXIS_TOL,
    _stable_schur,
    gain_pass,
    gain_step,
    stable_are_solution,
    stable_are_solutions,
)

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
    # riccati_rhs is exactly symmetric, S - (H + H^T), so the RK4 steps from
    # a symmetric K0 stay exactly symmetric without re-symmetrization.
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


def _random_spd(rng, shape, n):
    X = rng.standard_normal(shape + (n, n))
    return symmetrize(X @ X.swapaxes(-1, -2) / n + np.eye(n))


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(1, 6),
    G=st.integers(1, 3),
    N=st.integers(1, 40),
    seed=st.integers(0, 2**32 - 1),
)
def test_gain_steps_are_exactly_symmetric_and_the_same_alone_as_in_any_stack(n, G, N, seed):
    # G groups of N gain equations with their own S, sharing A and Q
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n))
    Q = _random_spd(rng, (), n) - np.eye(n)
    parts = [_random_spd(rng, (G, N), n) for _ in range(3)]
    coeffs = RiccatiCoefficients(A, Q, *parts)
    K0 = _random_spd(rng, (G, N), n)
    dK = riccati_rhs(K0, coeffs)
    assert np.array_equal(dK, dK.swapaxes(-1, -2))

    steps, dt = 3, 1e-3
    t = np.arange(steps + 1) * dt
    Ks = np.empty((G, N, steps + 1, n, n))
    Ks[:, :, 0] = K0
    stages, _, failure = gain_pass(coeffs, Ks, 0, steps, dt, t)
    assert failure is None
    assert np.array_equal(Ks, Ks.swapaxes(-1, -2))
    assert np.array_equal(stages, stages.swapaxes(-1, -2))
    for g in range(G):
        for i in range(N):
            alone = RiccatiCoefficients(A, Q, *(part[g, i] for part in parts))
            K_alone = np.empty((1, 1, steps + 1, n, n))
            K_alone[0, 0, 0] = K0[g, i]
            stages_alone, _, _ = gain_pass(alone, K_alone, 0, steps, dt, t)
            assert K_alone[0, 0].tobytes() == Ks[g, i].tobytes()
            assert stages_alone[:, :, 0, 0].tobytes() == stages[:, :, g, i].tobytes()
            step_stages, K1 = np.empty((4, n, n)), np.empty((n, n))
            gain_step(alone, K0[g, i], dt, step_stages, K1)
            assert K1.tobytes() == Ks[g, i, 1].tobytes()
            assert step_stages.tobytes() == stages[0, :, g, i].tobytes()


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


# A cap-bisection step on one of perfbench's tune-sweep networks (seed 101):
# every eigenvalue of its H has a real part of order 1e-15.
NEAR_AXIS_A = np.array([
    [-3.341930401795378, 9.859421033341572, 0.0],
    [1.009127818522941, -0.9794328561196928, 1.0422725686422916],
    [0.0, -14.667973839894007, 0.0],
])
NEAR_AXIS_Q = 0.13872081490237975 * np.eye(3)
NEAR_AXIS_S = np.array([
    [-8709.670958307208, -166.9439724575893, 2557.387315707238],
    [-166.9439724575893, -9970.247568113284, -332.9460534868671],
    [2557.387315707238, -332.9460534868671, -4891.63603955225],
])


def test_near_axis_hamiltonian_raises_no_stabilizing_solution():
    # The sorted Schur decomposition of this H raises LinAlgError
    # ("eigenvalues do not satisfy the sort condition"), so the axis test
    # must come before it.
    with pytest.raises(NoStabilizingSolution, match="imaginary axis"):
        stable_are_solution(NEAR_AXIS_A, NEAR_AXIS_Q, NEAR_AXIS_S)


def test_sorted_schur_fails_as_scipy_schur_does():
    A, Q, S = NEAR_AXIS_A, NEAR_AXIS_Q, NEAR_AXIS_S
    H = np.block([[A.T, -S], [-Q, -A]])
    with pytest.raises(np.linalg.LinAlgError) as expected:
        scipy.linalg.schur(H, output="real", sort=lambda re, im: re < 0.0)
    with pytest.raises(np.linalg.LinAlgError) as got:
        _stable_schur(np.stack([-np.eye(6), H]))
    assert str(got.value) == str(expected.value)


# ---------------------------------------------------------------------------
# The batched Hamiltonian solver against the one-matrix algorithm it replaced
# ---------------------------------------------------------------------------

def _scalar_are_solution(A, Q, S):
    """The one-matrix Hamiltonian solve the stacked solver replaced, with
    np.linalg.eigvals, scipy.linalg.schur(sort=...) and np.linalg.norm on
    one matrix: the reference stable_are_solutions must reproduce bit for bit.
    Returns (Zplus, residual, abscissa) or raises NoStabilizingSolution."""
    n = A.shape[0]
    H = np.block([[A.T, -S], [-Q, -A]])
    ev = np.linalg.eigvals(H)
    axis_tol = IMAG_AXIS_TOL * float(np.linalg.norm(H))
    if np.min(np.abs(ev.real)) < axis_tol:
        raise NoStabilizingSolution("Hamiltonian eigenvalue on the imaginary axis")
    _, Uo, sdim = scipy.linalg.schur(H, output="real", sort=lambda re, im: re < 0.0)
    if sdim != n:
        raise NoStabilizingSolution(
            f"stable invariant subspace has dimension {sdim}, expected {n}"
        )
    U1, V1 = Uo[:n, :n], Uo[n:, :n]
    sv = np.linalg.svd(U1, compute_uv=False)
    if sv[-1] < 1e-12 * sv[0]:
        raise NoStabilizingSolution("subspace basis U is numerically singular")
    Zplus = symmetrize(np.linalg.solve(U1.T, V1.T).T)
    min_eig = float(np.linalg.eigvalsh(Zplus)[0])
    if min_eig <= DEF_TOL * (1.0 + float(np.linalg.norm(Zplus))):
        raise NoStabilizingSolution(f"Z+ not positive definite (min eig {min_eig:.3g})")
    residual = float(np.linalg.norm(Zplus @ A.T + A @ Zplus - Zplus @ S @ Zplus + Q))
    tol = ARE_TOL_SCALE * (1.0 + float(np.linalg.norm(Zplus)) ** 2)
    if residual > tol:
        raise NoStabilizingSolution(f"residual {residual:.3g} exceeds {tol:.3g}")
    abscissa = float(np.max(np.linalg.eigvals((A - Zplus @ S).T).real))
    if abscissa >= 0.0:
        raise NoStabilizingSolution(f"closed loop not Hurwitz (abscissa {abscissa:.3g})")
    return Zplus, residual, abscissa


def _are_stack(rng, n, k):
    """A shared (A, Q) and k members S. A, Q and every S share one
    orthogonal eigenbasis on half the draws, so that a member can be put
    within roundoff of the imaginary axis: mode i of H has eigenvalues
    +-sqrt(a_i^2 + s_i q_i). Members mix definite, indefinite and
    near-axis S."""
    if rng.random() < 0.5:
        V = np.linalg.qr(rng.standard_normal((n, n)))[0]
        a, q = rng.uniform(-2.0, 2.0, n), rng.uniform(0.2, 2.0, n)
        A, Q = V @ np.diag(a) @ V.T, symmetrize(V @ np.diag(q) @ V.T)
        S = []
        for _ in range(k):
            s = rng.uniform(-1.0, 3.0, n)
            if rng.random() < 0.5:
                i = rng.integers(n)
                s[i] = -a[i] ** 2 / q[i] * (1.0 + rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-17, -6))
            S.append(symmetrize(V @ np.diag(s) @ V.T))
        return A, Q, np.stack(S)
    A = rng.standard_normal((n, n))
    B = rng.standard_normal((n, n))
    G = rng.standard_normal((k, n, n))
    S = symmetrize(G @ G.swapaxes(-1, -2)) - rng.uniform(-1.0, 4.0, (k, 1, 1)) * np.eye(n)
    return A, B @ B.T, S


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 4), k=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
def test_stacked_solver_equals_the_one_matrix_solve(n, k, seed):
    A, Q, S = _are_stack(np.random.default_rng(seed), n, k)
    expected = []
    for s in S:
        try:
            expected.append(_scalar_are_solution(A, Q, s))
        except NoStabilizingSolution as exc:
            expected.append(str(exc))
        except np.linalg.LinAlgError:
            with pytest.raises(np.linalg.LinAlgError):
                stable_are_solutions(A, Q, S)
            return
    for got in (stable_are_solutions(A, Q, S), [_outcome(A, Q, s) for s in S]):
        for sol, want in zip(got, expected):
            if isinstance(want, str):
                assert isinstance(sol, NoStabilizingSolution) and str(sol) == want
            else:
                assert sol.Zplus.tobytes() == want[0].tobytes()
                assert (sol.residual, sol.closed_loop_spectral_abscissa) == want[1:]


def _outcome(A, Q, S):
    """stable_are_solution, the batch of one, with its failure returned."""
    try:
        return stable_are_solution(A, Q, S)
    except NoStabilizingSolution as exc:
        return exc
