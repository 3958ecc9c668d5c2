"""Attenuation-bound evaluation on simulation output.

The guaranteed bound compares the weighted error cost int e^T P e dt against
the total disturbance budget

    sum_i ||x0 - xi_i||^2_{K_i(0)} + N ||w||_2^2
        + sum_i (||v_i||_2^2 + sum_{j in N_i} ||eps_ij||_2^2).

The initial term is the storage function of the proof at t = 0, so it is
weighted by the gains' initial value K_i(0) (gains.K0, Xcal_i by default).

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
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import DimensionMismatch, HypothesisNotVerified, PreconditionViolated
from .linalg import require_psd, trapezoid
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

    def record(self) -> dict:
        """The report as hinf_report.json holds it."""
        return {
            "lhs": self.lhs,
            "rhs": self.rhs,
            "slack": self.slack,
            "budget": asdict(self.breakdown),
            "hypotheses": self.hypotheses,
        }

    def lines(self) -> list[str]:
        """The text form of record(), as hinf_report.txt holds it: one
        `key = value` line per entry, nested keys joined by a dot, each
        number "%.17g" and the hypotheses sorted by name."""
        record = self.record()
        hypotheses = record.pop("hypotheses")
        budget = record.pop("budget")
        return (
            [f"{key} = {value:.17g}" for key, value in record.items()]
            + [f"budget.{key} = {value:.17g}" for key, value in budget.items()]
            + [f"hypotheses.{key} = {value}" for key, value in sorted(hypotheses.items())]
        )


def lhs_cost(traj: Trajectories, P: np.ndarray) -> float:
    """Trapezoid of e(t)^T P e(t) over the run horizon."""
    P = require_psd(P, "P")
    e = traj.e_stacked()
    if P.shape != (e.shape[1], e.shape[1]):
        raise DimensionMismatch(
            f"P must be {e.shape[1]}x{e.shape[1]}, got {P.shape}"
        )
    quad = np.einsum("ti,ti->t", e @ P, e)
    return trapezoid(quad, traj.dt)


def rhs_budget(scenario: Scenario, traj: Trajectories) -> BudgetBreakdown:
    """Disturbance budget from the realized run, term by term."""
    real = traj.realization
    if real is None:
        raise PreconditionViolated("the budget needs the run's realized disturbances")
    net = scenario.network
    dt = traj.dt
    steps = len(traj.t) - 1
    x0 = traj.x[0]
    init = 0.0
    for node, K0 in zip(net.nodes, scenario.gain_initial_blocks()):
        d = x0 - node.xi
        init += float(d @ K0 @ d)
    model = net.N * real.w.energy(steps, dt)
    measurement = 0.0
    for i in net.node_ids():
        measurement += real.v[i].energy(steps, dt)
    communication = 0.0
    for e in net.edges:
        communication += real.eps[e].energy(steps, dt)
    return BudgetBreakdown(
        init=init, model=model, measurement=measurement, communication=communication
    )


def check_hinf(scenario: Scenario, traj: Trajectories, P: np.ndarray) -> HinfReport:
    """Evaluate the attenuation inequality on one run.

    Emits a HypothesisNotVerified warning unless the run metadata records
    a finite positive stacked-condition margin and positive definite gains
    (gains_positive_definite True); the inequality is only guaranteed under
    those hypotheses.
    """
    hypotheses = dict(traj.hypotheses or {})
    margin = hypotheses.get("minv_margin")
    margin_ok = isinstance(margin, (int, float)) and 0 < margin < np.inf
    if not (margin_ok and hypotheses.get("gains_positive_definite") is True):
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
