"""Exception types shared across the package.

Every failure mode that callers are expected to handle gets its own class;
all inherit from MenfError so CLI code can map them to exit codes.
"""

from __future__ import annotations


class MenfError(Exception):
    """Base class for all package errors.

    key, when set, is the scenario key path of the value a construction
    check rejected (e.g. "sim.x0_law", "disturbances[2]", "nodes[1].C"), for
    checks that span several parts of a network or scenario.
    """

    key: str | None = None

    def at(self, key: str) -> "MenfError":
        self.key = key
        return self


class DimensionMismatch(MenfError):
    """A matrix or vector has the wrong shape for its role."""

    def __init__(self, what: str):
        super().__init__(what)
        self.what = what


class SelfLoop(MenfError):
    """The edge set contains (i, i), which the graph model forbids."""

    def __init__(self, node_id: int):
        super().__init__(f"edge set contains self-loop ({node_id}, {node_id})")
        self.node_id = node_id


class NotPositiveDefinite(MenfError):
    """A matrix required to be (semi)definite failed the eigenvalue test."""

    def __init__(self, name: str, min_eigenvalue: float):
        super().__init__(
            f"{name} is not positive definite (min eigenvalue {min_eigenvalue:.6g})"
        )
        self.name = name
        self.min_eigenvalue = min_eigenvalue


class NotStabilizable(MenfError):
    """(A, B) fails the PBH stabilizability test on an unstable mode."""

    def __init__(self, eigenvalue: complex, min_singular_value: float):
        super().__init__(
            f"(A, B) not stabilizable: mode {eigenvalue:.6g} has "
            f"[A - lambda I, B] min singular value {min_singular_value:.3g}"
        )
        self.eigenvalue = eigenvalue
        self.min_singular_value = min_singular_value


class NoStabilizingSolution(MenfError):
    """The algebraic Riccati equation has no positive definite stabilizing solution."""

    def __init__(self, reason: str):
        super().__init__(f"no stabilizing ARE solution: {reason}")
        self.reason = reason


class LostPositivity(MenfError):
    """A Riccati trajectory left the positive definite cone."""

    def __init__(self, t: float, min_eigenvalue: float):
        super().__init__(
            f"gain lost positive definiteness at t={t:.6g} "
            f"(min eigenvalue {min_eigenvalue:.6g})"
        )
        self.t = t
        self.min_eigenvalue = min_eigenvalue


class NonFinite(MenfError):
    """A trajectory produced NaN or infinity."""

    def __init__(self, t: float):
        super().__init__(f"non-finite values at t={t:.6g}")
        self.t = t


class SingularGain(MenfError):
    """Cholesky factorization of a gain matrix failed."""

    def __init__(self, detail: str = ""):
        super().__init__(f"gain matrix factorization failed{': ' + detail if detail else ''}")
        self.detail = detail


class Infeasible(MenfError):
    """The tuning search found no admissible weighting profile."""

    def __init__(self, mu_lo: float, mu_hi: float, detail: str):
        super().__init__(
            f"tuning infeasible (mu_lo={mu_lo:.6g}, mu_hi={mu_hi:.6g}): {detail}"
        )
        self.mu_lo = mu_lo
        self.mu_hi = mu_hi
        self.detail = detail


class PreconditionViolated(MenfError):
    """A documented operation precondition does not hold for the given inputs."""


class MissingTuning(MenfError):
    """A simulation was requested without fixed M blocks."""


class ScenarioFormatError(MenfError):
    """A scenario document failed to parse or validate."""

    def __init__(self, message: str, location: str = ""):
        super().__init__(f"{location + ': ' if location else ''}{message}")
        self.location = location


class HypothesisNotVerified(UserWarning):
    """Attenuation bound evaluated without recorded convergence hypotheses."""
