"""The benchmark's own checks accept correct outputs and reject perturbed ones.

Run from the repository root: python3 -m pytest perfbench/tests -q
"""

import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import checks
import menf
import workloads as W

DT = 1e-2
STEPS = 200
A = np.array([[-1.0, 2.0], [-2.0, -0.5]])
B = np.eye(2)


def rk4_plant(x0, w_panels):
    """Classic RK4 on x' = A x + B w with w constant over each step."""
    x = [np.asarray(x0, dtype=float)]
    for w in w_panels:
        f = lambda y: A @ y + B @ w  # noqa: E731
        y = x[-1]
        k1 = f(y)
        k2 = f(y + 0.5 * DT * k1)
        k3 = f(y + 0.5 * DT * k2)
        k4 = f(y + DT * k3)
        x.append(y + DT / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4))
    return np.array(x)


def held_and_pulse():
    """Grid samples of a held signal plus a pulse on [0.5, 1.0], closed edges."""
    rng = np.random.default_rng(0)
    frames = rng.normal(size=(STEPS // 10, 2))
    t = np.arange(STEPS + 1) * DT
    held = frames[np.minimum((t / 0.1 + 1e-12).astype(int), len(frames) - 1)]
    pulse = ((t >= 0.5 - 0.25 * DT) & (t <= 1.0 + 0.25 * DT))[:, None] * np.array([1.5, -1.0])
    specs = [{"kind": "held_gaussian", "hold": 0.1},
             {"kind": "pulse", "amplitude": [1.5, -1.0], "start": 0.5, "duration": 0.5}]
    mid = (np.arange(STEPS) + 0.5) * DT
    panels = held[:STEPS] + ((mid > 0.5) & (mid < 1.0))[:, None] * np.array([1.5, -1.0])
    return specs, held + pulse, panels


def test_panels_rebuild_held_plus_pulse():
    specs, samples, panels = held_and_pulse()
    np.testing.assert_allclose(checks.channel_panels(specs, samples, DT, STEPS), panels)


def test_plant_check_accepts_rk4_and_rejects_a_shifted_row():
    _, _, panels = held_and_pulse()
    x = rk4_plant([0.3, -0.2], panels)
    assert checks.plant_step_excess(A, B, x, panels, DT) <= 1.0
    shifted = x.copy()
    shifted[100] = x[101]
    assert checks.plant_step_excess(A, B, shifted, panels, DT) > 1.0
    nudged = x.copy()
    nudged[150, 0] += 1e-6
    assert checks.plant_step_excess(A, B, nudged, panels, DT) > 1.0


def test_exact_budget_rejects_the_trapezoid_of_grid_samples():
    pulse = [{"kind": "pulse", "amplitude": 2.0, "start": 0.5, "duration": 1.0}]
    t = np.arange(STEPS + 1) * DT
    samples = np.where((t >= 0.5) & (t <= 1.5), 2.0, 0.0)[:, None]
    panels = checks.channel_panels(pulse, samples, DT, STEPS)
    exact = checks.exact_energy(pulse, panels, DT, STEPS * DT)
    assert exact == pytest.approx(4.0, rel=1e-12)
    assert DT * float((panels ** 2).sum()) == pytest.approx(exact, rel=1e-12)
    trapezoid = checks.trapezoid(samples[:, 0] ** 2, DT)
    assert W.budget_matches(exact, {"rhs": exact})
    assert not W.budget_matches(trapezoid, {"rhs": exact})


def test_bound_check_rejects_negative_slack_and_a_wrong_lhs():
    good = {"lhs": 3.0, "rhs": 5.0, "slack": 2.0}
    op = W.Op("ok")
    W.check_bound(op, good, 3.0, 5.0, 2.0, certified=True)
    assert not op.problems
    op = W.Op("negative")
    W.check_bound(op, {"lhs": 6.0, "rhs": 5.0, "slack": -1.0}, 6.0, 5.0, -1.0, certified=True)
    assert op.problems
    op = W.Op("lhs")
    W.check_bound(op, good, 3.0 * (1 + 1e-6), 5.0, 2.0 - 3e-6, certified=True)
    assert op.problems


def test_laplacian_weight_matches_a_hand_built_one():
    P = checks.laplacian_weight(3, [(1, 2), (2, 1), (2, 3)], np.eye(1), 0.5)
    L = np.array([[1, -1, 0], [-1, 2, -1], [0, 0, 0]], dtype=float)
    Lrev = np.array([[1, -1, 0], [-1, 1, 0], [0, -1, 1]], dtype=float)
    np.testing.assert_allclose(P, 0.5 * (L + Lrev) + 0.5 * np.eye(3))


@pytest.fixture(scope="module")
def tuned_pair():
    """A four-node network of the benchmark family and its certified tuning."""
    spec = W.heterogeneous_network(np.random.default_rng(5), 4)
    net = W.menf_network(spec)
    return spec, menf.tune_scalar(net, menf.laplacian_P(net, spec["P0"], spec["ridge"]))


def test_certificate_check_accepts_the_tuner_and_rejects_a_bad_witness(tuned_pair):
    spec, result = tuned_pair
    op = W.Op("tune")
    assert W.check_certificate(op, spec, result), op.problems
    bad = list(result.node_certificates)
    bad[1] = SimpleNamespace(lmi_witness=bad[1].lmi_witness + 10.0 * np.eye(3))
    op = W.Op("bad witness")
    assert not W.check_certificate(op, spec, SimpleNamespace(
        P=result.P, m_inv_blocks=result.m_inv_blocks, minv_margin=result.minv_margin,
        node_certificates=tuple(bad)))
    assert any("LMI" in p for p in op.problems)


def test_certificate_check_rejects_a_wrong_margin(tuned_pair):
    spec, result = tuned_pair
    op = W.Op("margin")
    assert not W.check_certificate(op, spec, SimpleNamespace(
        P=result.P, m_inv_blocks=result.m_inv_blocks, minv_margin=result.minv_margin + 1e-3,
        node_certificates=result.node_certificates))


def test_gain_check_rejects_a_lost_positivity():
    K = np.tile(np.eye(2), (3, 5, 1, 1))
    assert checks.min_gain_eigenvalue(K) == pytest.approx(1.0)
    K[1, 3] = np.diag([1.0, -1e-9])
    assert checks.min_gain_eigenvalue(K) < 0.0


def test_run_refuses_a_directory_without_menf(tmp_path):
    proc = subprocess.run([sys.executable, str(Path(checks.__file__).parent / "run.py"),
                           "--workload", "tune-sweep", "--seed", "1", "--seconds", "1"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
