"""Distributed minimum-energy filtering with guaranteed disturbance attenuation.

A network of filters estimates the state of a linear plant from local
measurements and noisy neighbor estimates. Each node carries a time-varying
information-form gain driven by a local differential Riccati equation, the
attenuation weighting M is designed by a certified scalar LMI search, and
the package verifies the attenuation bound on simulated runs. The five-node
Chua-circuit experiment ships as a built-in scenario.
"""

from .errors import (
    DimensionMismatch,
    HypothesisNotVerified,
    Infeasible,
    LostPositivity,
    MenfError,
    MissingTuning,
    NonFinite,
    NoStabilizingSolution,
    NotPositiveDefinite,
    NotStabilizable,
    PreconditionViolated,
    ScenarioFormatError,
    SelfLoop,
    SingularGain,
)
from .model import (
    GlobalMatrices,
    NeighborLink,
    Network,
    NodeModel,
    PlantModel,
    assemble_global,
    build_network,
)
from .riccati import (
    AreSolution,
    GainTrajectory,
    Prop1Report,
    RiccatiCoefficients,
    integrate_global_riccati,
    integrate_riccati,
    riccati_rhs,
    solve_are_stabilizing,
    verify_prop1_limit,
)
from .sim import (
    DisturbanceSpec,
    ErrorTrajectories,
    RealizedDisturbances,
    Scenario,
    Trajectories,
    X0Law,
    make_isolated_variant,
    realize_disturbances,
    simulate,
    simulate_error_oracle,
    simulate_seeds,
)
from .tuning import (
    NodeCertificate,
    TuningResult,
    check_minv,
    laplacian_P,
    node_feasible,
    tune_scalar,
    verify_tuning,
)
from .verify import (
    BudgetBreakdown,
    EnergyCandidates,
    HinfReport,
    check_hinf,
    consensus_cost,
    energy_cost,
    lhs_cost,
    rhs_budget,
)

__version__ = "0.1.0"

__all__ = [
    "AreSolution",
    "BudgetBreakdown",
    "DimensionMismatch",
    "DisturbanceSpec",
    "EnergyCandidates",
    "ErrorTrajectories",
    "GainTrajectory",
    "GlobalMatrices",
    "HinfReport",
    "HypothesisNotVerified",
    "Infeasible",
    "LostPositivity",
    "MenfError",
    "MissingTuning",
    "NeighborLink",
    "Network",
    "NodeCertificate",
    "NodeModel",
    "NonFinite",
    "NoStabilizingSolution",
    "NotPositiveDefinite",
    "NotStabilizable",
    "PlantModel",
    "PreconditionViolated",
    "Prop1Report",
    "RealizedDisturbances",
    "RiccatiCoefficients",
    "Scenario",
    "ScenarioFormatError",
    "SelfLoop",
    "SingularGain",
    "Trajectories",
    "TuningResult",
    "X0Law",
    "assemble_global",
    "build_network",
    "check_hinf",
    "check_minv",
    "consensus_cost",
    "energy_cost",
    "integrate_global_riccati",
    "integrate_riccati",
    "laplacian_P",
    "lhs_cost",
    "make_isolated_variant",
    "node_feasible",
    "realize_disturbances",
    "rhs_budget",
    "riccati_rhs",
    "simulate",
    "simulate_error_oracle",
    "simulate_seeds",
    "solve_are_stabilizing",
    "tune_scalar",
    "verify_prop1_limit",
    "verify_tuning",
]
