"""Attenuation-bound evaluation and energy diagnostics on simulation output.

The guaranteed bound compares the weighted error cost int e^T P e dt against
the total disturbance budget

    sum_i ||x0 - xi_i||^2_{Xcal_i} + N ||w||_2^2
        + sum_i (||v_i||_2^2 + sum_{j in N_i} ||eps_ij||_2^2).

The left side is a composite trapezoid on the simulation grid; each
disturbance norm is dt times the sum of the channel's squared panel values,
which is exact because every built-in kind is constant on each integration
panel. Both are finite-horizon partial integrals: the left side's integrand
is nonnegative for P >= 0, so slack >= 0 on [0, T] is a valid necessary
check of the infinite-horizon bound, and for finite-support disturbances
the right side is fully realized on [0, T].
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, HypothesisNotVerified, PreconditionViolated
from .linalg import require_psd, trapezoid
from .model import Network
from .sim import Scenario, Trajectories


@dataclass
class BudgetBreakdown:
    """Right-hand-side terms of the attenuation bound."""

    init: float
    model: float
    measurement: float
    communication: float

    @property
    def total(self) -> float:
        return self.init + self.model + self.measurement + self.communication


@dataclass
class HinfReport:
    """Finite-horizon evaluation of the attenuation inequality."""

    lhs: float
    rhs: float
    slack: float
    breakdown: BudgetBreakdown
    hypotheses: dict = field(default_factory=dict)

    def lines(self) -> list[str]:
        out = [
            f"lhs = {self.lhs:.17g}",
            f"rhs = {self.rhs:.17g}",
            f"slack = {self.slack:.17g}",
            f"budget.init = {self.breakdown.init:.17g}",
            f"budget.model = {self.breakdown.model:.17g}",
            f"budget.measurement = {self.breakdown.measurement:.17g}",
            f"budget.communication = {self.breakdown.communication:.17g}",
        ]
        for key, value in sorted(self.hypotheses.items()):
            out.append(f"hypotheses.{key} = {value}")
        return out


def lhs_cost(traj: Trajectories, P: np.ndarray) -> float:
    """Trapezoid of e(t)^T P e(t) over the run horizon."""
    P = require_psd(P, "P")
    e = traj.e_stacked()
    if P.shape != (e.shape[1], e.shape[1]):
        raise DimensionMismatch(
            f"P must be {e.shape[1]}x{e.shape[1]}, got {P.shape}"
        )
    quad = np.einsum("ti,ij,tj->t", e, P, e)
    return trapezoid(quad, traj.dt)


def rhs_budget(scenario: Scenario, traj: Trajectories) -> BudgetBreakdown:
    """Disturbance budget from the realized run, term by term."""
    real = traj.realization
    if real is None:
        raise PreconditionViolated("the budget needs the run's realized disturbances")
    net = scenario.network
    dt = traj.dt
    T = float(traj.t[-1])
    x0 = traj.x[0]
    init = 0.0
    for node in net.nodes:
        d = x0 - node.xi
        init += float(d @ node.Xcal @ d)
    model = net.N * real.w.energy_on(T, dt)
    measurement = 0.0
    for i in net.node_ids():
        measurement += real.v[i].energy_on(T, dt)
    communication = 0.0
    for e in net.edges:
        communication += real.eps[e].energy_on(T, dt)
    return BudgetBreakdown(
        init=init, model=model, measurement=measurement, communication=communication
    )


def check_hinf(scenario: Scenario, traj: Trajectories, P: np.ndarray) -> HinfReport:
    """Evaluate the attenuation inequality on one run.

    Emits a HypothesisNotVerified warning when the run metadata does not
    record a positive stacked-condition margin and positive definite gains;
    the inequality is only guaranteed under those hypotheses.
    """
    hypotheses = dict(traj.hypotheses or {})
    margin = hypotheses.get("minv_margin")
    gains_ok = hypotheses.get("gains_positive_definite")
    if margin is None or not gains_ok:
        warnings.warn(
            "attenuation bound evaluated without verified convergence "
            "hypotheses (stacked-condition margin / gain positivity)",
            HypothesisNotVerified,
            stacklevel=2,
        )
    lhs = lhs_cost(traj, P)
    breakdown = rhs_budget(scenario, traj)
    rhs = breakdown.total
    return HinfReport(
        lhs=lhs, rhs=rhs, slack=rhs - lhs, breakdown=breakdown, hypotheses=hypotheses
    )


def consensus_cost(traj: Trajectories, P0: np.ndarray) -> float:
    """(1/2) int sum_i sum_{j in N_i} ||xhat_i - xhat_j||^2_{P0} dt."""
    P0 = require_psd(P0, "P0")
    net = traj.network
    if P0.shape != (net.n, net.n):
        raise DimensionMismatch(f"P0 must be {net.n}x{net.n}, got {P0.shape}")
    quad = np.zeros(traj.t.shape)
    for i in net.node_ids():
        for j in net.neighbors[i]:
            d = traj.xhat[i - 1] - traj.xhat[j - 1]
            quad += np.einsum("ti,ij,tj->t", d, P0, d)
    return 0.5 * trapezoid(quad, traj.dt)


@dataclass
class EnergyCandidates:
    """Candidate unknowns for the node energy functional: initial state,
    model disturbance samples on the grid, neighbor-approximation errors."""

    x0: np.ndarray
    w: np.ndarray | None = None                      # (steps+1, q)
    eta: dict[int, np.ndarray] | None = None         # j -> (steps+1, n)


def energy_cost(
    net: Network,
    node_id: int,
    traj: Trajectories,
    candidates: EnergyCandidates,
    m_inv: np.ndarray,
    upto: float | None = None,
) -> float:
    """Node energy functional J_{i,t} evaluated at candidate unknowns.

    The candidate state trajectory is integrated from candidates.x0 under
    candidates.w by RK4 with stage values of w interpolated linearly between
    the grid samples. This is deliberately not the engine's scheme, which
    holds each disturbance at its panel value: a candidate w is arbitrary
    grid samples, not a panel-constant signal. Measurement and neighbor data
    are reconstructed from the run.
    Includes the negative ||x - xhat_i||^2_{M^-1} term. Diagnostic only: the
    filter estimate is the minimizer by construction.
    """
    node = net.node(node_id)
    m_inv = require_psd(m_inv, "M_inv")
    n, q = net.n, net.plant.q
    steps = len(traj.t) - 1
    dt = traj.dt
    last = steps if upto is None else int(round(upto / dt))
    if not 0 <= last <= steps:
        raise DimensionMismatch(f"upto={upto} outside the run horizon")

    x0 = np.asarray(candidates.x0, dtype=float)
    if x0.shape != (n,):
        raise DimensionMismatch(f"candidate x0 must have dimension {n}")
    w = candidates.w
    w = np.zeros((steps + 1, q)) if w is None else np.asarray(w, dtype=float)
    if w.shape != (steps + 1, q):
        raise DimensionMismatch(f"candidate w must have shape {(steps + 1, q)}")
    eta = candidates.eta or {}
    for j in net.neighbors[node_id]:
        if j in eta and np.asarray(eta[j]).shape != (steps + 1, n):
            raise DimensionMismatch(f"candidate eta[{j}] must have shape {(steps + 1, n)}")

    # Candidate state under the candidate disturbance.
    A, B = net.plant.A, net.plant.B
    x_cand = np.empty((steps + 1, n))
    x_cand[0] = x0
    xc = x0.copy()
    for k in range(steps):
        w0, w1 = w[k], w[k + 1]
        wm = 0.5 * (w0 + w1)
        f1 = A @ xc + B @ w0
        f2 = A @ (xc + 0.5 * dt * f1) + B @ wm
        f3 = A @ (xc + 0.5 * dt * f2) + B @ wm
        f4 = A @ (xc + dt * f3) + B @ w1
        xc = xc + (dt / 6.0) * (f1 + 2.0 * f2 + 2.0 * f3 + f4)
        x_cand[k + 1] = xc

    sl = slice(0, last + 1)
    integrand = np.einsum("ti,ti->t", w[sl], w[sl])

    y = traj.x[sl] @ node.C.T + traj.v_samples[node_id][sl] @ node.D.T
    meas_resid = y - x_cand[sl] @ node.C.T
    integrand = integrand + np.einsum(
        "ti,ij,tj->t", meas_resid, np.linalg.inv(node.R), meas_resid
    )

    for j in net.neighbors[node_id]:
        link = node.links[j]
        c = traj.xhat[j - 1][sl] @ link.W.T + traj.eps_samples[(node_id, j)][sl] @ link.F.T
        eta_j = eta.get(j)
        eta_j = np.zeros((last + 1, n)) if eta_j is None else np.asarray(eta_j)[sl]
        comm_resid = c - x_cand[sl] @ link.W.T - eta_j @ link.W.T
        integrand = integrand + np.einsum(
            "ti,ij,tj->t", comm_resid, np.linalg.inv(link.S), comm_resid
        )
        integrand = integrand + np.einsum(
            "ti,ij,tj->t", eta_j, np.linalg.inv(link.Z), eta_j
        )

    mismatch = x_cand[sl] - traj.xhat[node_id - 1][sl]
    integrand = integrand - np.einsum("ti,ij,tj->t", mismatch, m_inv, mismatch)

    d0 = x0 - node.xi
    return 0.5 * float(d0 @ node.Xcal @ d0) + 0.5 * trapezoid(integrand, dt)
