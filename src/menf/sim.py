"""Coupled plant / filter / gain simulation on a shared fixed-step RK4 grid.

One engine step advances the plant state, all N estimates and all N gains
with the classic RK4 scheme; measurements and neighbor signals are formed
from the *stage* values of x and xhat_j, so the coupled system is
integrated as a single vector field. The engine, simulate_runs, runs it for
a batch of runs that share the plant, N, n, T and dt, in two passes over
bounded chunks of steps. The gains K_i(t) need no data, so they depend on
a run only through its gain variant, its set of gain coefficients and K0:
the repeated seeds of a scenario are one variant, and an isolated copy of a
network (make_isolated_variant) is another.

1. Gain pass, once per chunk for the whole batch: riccati.gain_pass loops
   riccati.gain_step, the package's one gain step, over the chunk for the
   N gain equations of every variant at once, stacked as (V, N, n, n). It
   keeps the four stage gains of every step, each exactly symmetric with no
   re-symmetrization, and guards positivity at the chunk's grid points
   with one batched eigvalsh. _inverses then factors every stage
   gain of the chunk, K = L L^T, and gives K^-1 = X^T X with X = L^-1, by
   elementwise array passes over the whole stack rather than LAPACK calls
   per matrix; a pivot that is not > 0, NaN included, is SingularGain.
2. State pass. The same steps for every run's z = [x; xhat_1; ...; xhat_N],
   stacked as (S, m, 1), through filters.state_step, the RK4 step of
   filters.filter_field: every stage's innovations are one mat-vec per run
   with the stacked operator of its network plus a per-step disturbance
   term, and K^-1 comes from the cached stage inverses of its variant,
   gathered per run. Each step writes its stage states into one buffer of
   the chunk and its result straight into the chunk's states. Each run's
   bits are those of a run on its own. simulate and simulate_seeds are
   batches of this engine.

A chunk holds riccati.CHUNK_BYTES (128 KB) of stage gains: enough to
amortize the batched calls over tens to hundreds of steps, and small
because the chunk buffers add directly to the peak resident memory of a
run, which the benchmark bounds at +5%. The disturbance term is evaluated
per run for a block of whole chunks of at most DISTURBANCE_BYTES, so apart
from the stored states and gains no buffer spans the whole grid; each run
stores its states in its own array, and its grid samples are derived on
first access.

Failures keep the timestamps of a step-by-step integration, by one rule:
a batch stops at its first failure in step order, of run r say, and
raises it once the runs before r have been run again as a batch of their
own, which raises first if one of them fails later. A run fails when its
state turns non-finite or when its variant's gain fails: in step order, a
stage factorization, then non-finite gains or lost positivity at the next
grid point, where a non-finite state comes first. A batch that does not
fail is stepped once; a failing one steps the runs before r again.

Disturbances live on the integer step grid. realize_disturbances compiles
each channel into one signal, a sum of parts: a pulse is one frame on the
steps between its snapped edges, a held-gaussian one frame per hold window
of whole steps, and a zero spec adds nothing. A signal is read only by
step index: panels(k0, k1) gives the values held on steps k0..k1-1, which
the integrator uses at every stage, so the scheme keeps full order across
pulse edges; samples(steps) gives the grid samples stored for the
verifier, each the value of the step after its grid point (the last
step's at T), so pulse edges are closed; and energy(steps, dt) is dt times
the sum of the squared panel values, the exact squared L2 norm.

Everything is deterministic given the scenario seed: the initial state and
each disturbance channel draw from independent streams spawned from the
seed with stable per-channel keys, so removing one channel never reshuffles
the others.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .errors import (
    DimensionMismatch,
    LostPositivity,
    MissingTuning,
    NonFinite,
    NotPositiveDefinite,
    SingularGain,
)
from .filters import disturbance_term, error_inner, stacked_operator, state_step
from .linalg import definiteness_threshold, require_psd, require_spd, symmetrize
from .model import Network, NodeModel, build_network
from .riccati import RiccatiCoefficients, chunk_steps, gain_pass, riccati_rhs

GRID_TOL = 1e-9


# ---------------------------------------------------------------------------
# Disturbance specification and realization
# ---------------------------------------------------------------------------

@dataclass
class DisturbanceSpec:
    """One disturbance channel: kind in {zero, pulse, held_gaussian};
    target "w", or "v" with node, or "eps" with edge=(i, j). Only a "v"
    spec takes a node and only an "eps" spec an edge.

    Pulse: amplitude (scalar broadcast or per-component vector) on
    [start, start + duration], both edges snapped to the nearest grid
    point. Held-gaussian: i.i.d. N(mean, std^2) values, each held over
    `hold` seconds snapped to a whole number of steps, drawn only for the
    steps of the horizon so realizations stay square-integrable. Zero adds
    nothing to its channel.
    """

    kind: str
    target: str
    node: int | None = None
    edge: tuple[int, int] | None = None
    amplitude: object = 1.0
    start: float = 0.0
    duration: float = 1.0
    mean: float = 0.0
    std: float = 1.0
    hold: float = 0.1
    seed: int | None = None

    def __post_init__(self):
        if self.kind not in ("zero", "pulse", "held_gaussian"):
            raise DimensionMismatch(f"unknown disturbance kind {self.kind!r}")
        if self.target not in ("w", "v", "eps"):
            raise DimensionMismatch(f"unknown disturbance target {self.target!r}")
        if (self.target == "v") != (self.node is not None):
            raise DimensionMismatch("target 'v' needs a node id; no other target takes one")
        if (self.target == "eps") != (self.edge is not None):
            raise DimensionMismatch("target 'eps' needs an edge (i, j); no other takes one")
        if self.edge is not None:
            self.edge = (int(self.edge[0]), int(self.edge[1]))

    def channel_key(self) -> tuple:
        if self.target == "w":
            return ("w",)
        if self.target == "v":
            return ("v", self.node)
        return ("eps", self.edge[0], self.edge[1])


def _snap_to_grid(value: float, dt: float, what: str) -> int:
    """The index of the grid point nearest to value; warns when value is
    not on the grid."""
    k = round(value / dt)
    snapped = k * dt
    if abs(snapped - value) > GRID_TOL * max(1.0, abs(value)):
        warnings.warn(
            f"{what} {value} not aligned with dt={dt}; snapped to {snapped}",
            stacklevel=3,
        )
    return k


class _Signal:
    """One disturbance channel: a sum of parts on the integer step grid.

    A part (a, b, h, frames) carries frames[(k - a) // h] on the steps
    a <= k < b. At a grid point a <= k <= b it carries the value of the
    step after the point, and at b the value of its last step, so a
    pulse's grid samples carry its amplitude at both edges. A part with no
    step on the horizon carries nothing, at grid points as on steps.
    """

    def __init__(self, dim: int):
        self.dim = dim
        self.parts = []

    def panels(self, k0: int, k1: int) -> np.ndarray:
        """(k1 - k0, dim) values held on the steps k0..k1-1: what the
        integrator uses at every stage of those steps."""
        out = np.zeros((k1 - k0, self.dim))
        for a, b, h, frames in self.parts:
            lo, hi = max(a, k0), min(b, k1)
            if lo < hi:
                out[lo - k0:hi - k0] += frames[(np.arange(lo, hi) - a) // h]
        return out

    def samples(self, steps: int) -> np.ndarray:
        """(steps + 1, dim) values at the grid points 0..steps."""
        out = np.zeros((steps + 1, self.dim))
        for a, b, h, frames in self.parts:
            lo, hi = max(a, 0), min(b, steps)
            if lo < hi:
                idx = np.minimum((np.arange(lo, hi + 1) - a) // h, len(frames) - 1)
                out[lo:hi + 1] += frames[idx]
        return out

    def energy(self, steps: int, dt: float) -> float:
        """Exact squared L2 norm on [0, steps * dt]: dt times the sum of the
        squared panel values."""
        panels = self.panels(0, steps)
        return dt * float(np.einsum("ki,ki->", panels, panels))


@dataclass
class X0Law:
    """Initial-state law: fixed vector, or i.i.d. gaussian per coordinate."""

    kind: str
    value: np.ndarray | None = None
    mean: float = 0.0
    std: float = 0.0
    seed: int | None = None

    def __post_init__(self):
        if self.kind not in ("fixed", "gaussian"):
            raise DimensionMismatch(f"unknown x0 law {self.kind!r}")
        if self.kind == "fixed":
            if self.value is None:
                raise DimensionMismatch("fixed x0 law needs a value")
            self.value = np.asarray(self.value, dtype=float)

    def draw(self, n: int, rng: np.random.Generator) -> np.ndarray:
        if self.kind == "fixed":
            return self.value.copy()
        return self.mean + self.std * rng.standard_normal(n)


@dataclass
class Scenario:
    """Everything a run needs: network, grid, disturbances, priors, weights.

    m_inv_blocks are the per-node M_i^-1 matrices (PSD; zero allowed). They
    must be fixed before simulation -- the gain equations are
    data-independent and could equally be solved offline. K0_blocks are the
    initial gains K_i(0), positive definite; when unset, each node's Xcal.

    Construction checks everything a run needs of its parts, so a Scenario
    that exists is runnable: T a whole number of dt steps, a fixed x0 of
    dimension n, every disturbance on a channel of the network with a pulse
    amplitude that fits it and a hold of at least one step after snapping,
    N positive semidefinite n x n blocks of M^-1 and N positive definite
    n x n blocks of K0. K0 is stored symmetrized: the gain equation keeps
    an exactly symmetric K0 exactly symmetric, and nothing re-symmetrizes
    the gains. A failed check raises DimensionMismatch or
    NotPositiveDefinite carrying the key path of the part ("sim",
    "sim.x0_law", "disturbances[k]", "gains.K0"); the M^-1 checks carry
    none, since those blocks may come from outside the scenario document.
    """

    network: Network
    T: float
    dt: float
    seed: int
    x0_law: X0Law
    disturbances: tuple[DisturbanceSpec, ...] = ()
    m_inv_blocks: tuple[np.ndarray, ...] | None = None
    K0_blocks: tuple[np.ndarray, ...] | None = None
    minv_margin: float | None = None

    def __post_init__(self):
        if self.dt <= 0:
            raise DimensionMismatch("dt must be positive").at("sim")
        steps = round(self.T / self.dt)
        if steps < 1 or abs(self.T - steps * self.dt) > GRID_TOL * max(1.0, self.T):
            raise DimensionMismatch(
                f"T={self.T} must be a whole number of dt={self.dt} steps"
            ).at("sim")
        self.disturbances = tuple(self.disturbances)
        N, n = self.network.N, self.network.n
        law = self.x0_law
        if law.kind == "fixed" and law.value.shape != (n,):
            raise DimensionMismatch(
                f"fixed x0 must have dimension {n}, got {law.value.shape}"
            ).at("sim.x0_law")
        dims = _channel_dims(self.network)
        for k, spec in enumerate(self.disturbances):
            where = f"disturbances[{k}]"
            dim = dims.get(spec.channel_key())
            if dim is None:
                target = f"node {spec.node}" if spec.target == "v" else f"edge {spec.edge}"
                raise DimensionMismatch(f"disturbance targets unknown {target}").at(where)
            amp_shape = np.shape(spec.amplitude)
            if spec.kind == "pulse" and amp_shape not in ((), (dim,)):
                raise DimensionMismatch(
                    f"pulse amplitude must be scalar or length {dim}, got shape {amp_shape}"
                ).at(where)
            if spec.kind == "held_gaussian" and round(spec.hold / self.dt) < 1:
                raise DimensionMismatch(
                    f"hold interval {spec.hold} snaps to zero steps of dt={self.dt}"
                ).at(where)
        for name, key, blocks, require in (
            ("M_inv", None, self.m_inv_blocks, require_psd),
            ("K0", "gains.K0", self.K0_blocks, require_spd),
        ):
            if blocks is None:
                continue
            if len(blocks) != N or any(np.shape(b) != (n, n) for b in blocks):
                raise DimensionMismatch(
                    f"{name} must be {N} blocks of shape {(n, n)}, got shapes "
                    f"{[np.shape(b) for b in blocks]}"
                ).at(key)
            checked = []
            for i, b in enumerate(blocks, start=1):
                try:
                    checked.append(require(b, f"{name}_{i}"))
                except (DimensionMismatch, NotPositiveDefinite) as exc:
                    raise exc.at(key)
            if name == "K0":
                self.K0_blocks = tuple(checked)

    @property
    def steps(self) -> int:
        return round(self.T / self.dt)

    def t_grid(self) -> np.ndarray:
        return np.arange(self.steps + 1) * self.dt

    def gain_initial_blocks(self) -> tuple[np.ndarray, ...]:
        if self.K0_blocks is not None:
            return self.K0_blocks
        return tuple(node.Xcal for node in self.network.nodes)

    def require_m_inv(self) -> tuple[np.ndarray, ...]:
        """The symmetrized M^-1 blocks; MissingTuning when none are fixed."""
        if self.m_inv_blocks is None:
            raise MissingTuning(
                "scenario has no M^-1 blocks: tune it (`menf tune`, then "
                "--tuned FILE), put M or M_inv in its tuning section, or set them"
            )
        return tuple(symmetrize(np.asarray(b, dtype=float)) for b in self.m_inv_blocks)


@dataclass
class RealizedDisturbances:
    """Concrete signals for one run: x0 plus one signal per channel."""

    x0: np.ndarray
    w: _Signal
    v: dict[int, _Signal]
    eps: dict[tuple[int, int], _Signal]

    def samples(self, steps: int):
        """Every channel at the grid points 0..steps: (w, {i: v_i},
        {(i, j): eps_ij}), each an array of shape (steps + 1, dim)."""
        w = self.w.samples(steps)
        v = {i: sig.samples(steps) for i, sig in self.v.items()}
        eps = {e: sig.samples(steps) for e, sig in self.eps.items()}
        return w, v, eps


def _channel_dims(net: Network) -> dict[tuple, int]:
    """Dimension of every disturbance channel of the network, by channel key."""
    dims = {("w",): net.plant.q}
    dims.update({("v", i): net.node(i).p for i in net.node_ids()})
    dims.update({("eps", i, j): net.link(i, j).m for (i, j) in net.edges})
    return dims


def _spec_rng(spec: DisturbanceSpec, scenario_seed: int, occurrence: int):
    if spec.seed is not None:
        return np.random.default_rng(spec.seed)
    tcode = {"w": 0, "v": 1, "eps": 2}[spec.target]
    a, b = spec.edge or (spec.node or 0, 0)
    seq = np.random.SeedSequence(scenario_seed, spawn_key=(1, tcode, a, b, occurrence))
    return np.random.default_rng(seq)


def _part(spec: DisturbanceSpec, dim: int, scenario: Scenario, occurrence: int):
    """The (a, b, h, frames) part of one spec on the scenario's step grid,
    None for a zero spec. A pulse is one frame held over all its steps; a
    held-gaussian draws one frame per hold window of the horizon."""
    dt, steps = scenario.dt, scenario.steps
    if spec.kind == "zero":
        return None
    if spec.kind == "pulse":
        amp = np.broadcast_to(np.asarray(spec.amplitude, dtype=float), (dim,))
        a = _snap_to_grid(spec.start, dt, "pulse start")
        b = _snap_to_grid(spec.start + spec.duration, dt, "pulse end")
        return a, b, max(b - a, 1), amp[None]
    h = _snap_to_grid(spec.hold, dt, "hold interval")
    rng = _spec_rng(spec, scenario.seed, occurrence)
    frames = spec.mean + spec.std * rng.standard_normal((-(-steps // h), dim))
    return 0, steps, h, frames


def realize_disturbances(scenario: Scenario) -> RealizedDisturbances:
    """Draw x0 and compile every disturbance channel into a signal.

    Specs compile in document order, so snapping warnings keep that order,
    and a held spec's stream key counts every earlier spec of its channel.
    """
    net = scenario.network
    rng_x0 = (
        np.random.default_rng(scenario.x0_law.seed)
        if scenario.x0_law.seed is not None
        else np.random.default_rng(np.random.SeedSequence(scenario.seed, spawn_key=(0,)))
    )
    x0 = scenario.x0_law.draw(net.n, rng_x0)

    signals = {key: _Signal(dim) for key, dim in _channel_dims(net).items()}
    occurrences = dict.fromkeys(signals, 0)
    for spec in scenario.disturbances:
        key = spec.channel_key()
        part = _part(spec, signals[key].dim, scenario, occurrences[key])
        occurrences[key] += 1
        if part is not None:
            signals[key].parts.append(part)
    v = {i: signals[("v", i)] for i in net.node_ids()}
    eps = {(i, j): signals[("eps", i, j)] for (i, j) in net.edges}
    return RealizedDisturbances(x0=x0, w=signals[("w",)], v=v, eps=eps)


# ---------------------------------------------------------------------------
# Trajectories
# ---------------------------------------------------------------------------

@dataclass
class Trajectories:
    """Grid-sampled output of one run. Errors are always recomputed from
    xhat - x, never stored. The disturbance samples at the grid points are
    derived from the realization on first access and cached."""

    t: np.ndarray                       # (steps+1,)
    x: np.ndarray                       # (steps+1, n)
    xhat: np.ndarray                    # (N, steps+1, n)
    K: np.ndarray                       # (N, steps+1, n, n)
    realization: RealizedDisturbances
    network: Network
    hypotheses: dict = field(default_factory=dict)

    @cached_property
    def _samples(self):
        return self.realization.samples(len(self.t) - 1)

    @property
    def w_samples(self) -> np.ndarray:
        """(steps+1, q) samples of w."""
        return self._samples[0]

    @property
    def v_samples(self) -> dict[int, np.ndarray]:
        """{i: (steps+1, p_i) samples of v_i}."""
        return self._samples[1]

    @property
    def eps_samples(self) -> dict[tuple[int, int], np.ndarray]:
        """{(i, j): (steps+1, m_ij) samples of eps_ij}."""
        return self._samples[2]

    @property
    def e(self) -> np.ndarray:
        """(N, steps+1, n) estimation errors xhat_i - x."""
        return self.xhat - self.x[None, :, :]

    def e_stacked(self) -> np.ndarray:
        """(steps+1, N*n) errors stacked node-major per time point."""
        N, T1, n = self.xhat.shape
        return np.transpose(self.e, (1, 0, 2)).reshape(T1, N * n)

    @property
    def dt(self) -> float:
        return float(self.t[1] - self.t[0])


@dataclass
class ErrorTrajectories:
    """Output of the direct error-dynamics integration (cross-check oracle)."""

    t: np.ndarray
    e: np.ndarray  # (N, steps+1, n)


# ---------------------------------------------------------------------------
# Engine
# ---------------------------------------------------------------------------

# Byte budget per run of the disturbance term held at once. Evaluating it
# costs a few numpy calls per channel, so it spans many gain chunks on
# networks with many channels and short chunks.
DISTURBANCE_BYTES = 256 * 1024

# RK4 stage times as fractions of a step.
_STAGE_OFFSETS = (0.0, 0.5, 0.5, 1.0)


def _spd_solve_batched(K: np.ndarray, rhs: np.ndarray, t: float) -> np.ndarray:
    """Solve K_i z_i = rhs_i for all nodes via batched Cholesky.

    A pivot of the factor that is not > 0 is SingularGain, NaN included:
    OpenBLAS's Cholesky lets a NaN pivot through.
    """
    try:
        L = np.linalg.cholesky(K)
    except np.linalg.LinAlgError as exc:
        raise SingularGain(f"at t={t:.6g}: {exc}") from exc
    if not (np.diagonal(L, axis1=-2, axis2=-1) > 0.0).all():
        raise SingularGain(f"at t={t:.6g}: Matrix is not positive definite")
    y = np.linalg.solve(L, rhs[:, :, None])
    return np.linalg.solve(np.transpose(L, (0, 2, 1)), y)[:, :, 0]


def _check_gains(K: np.ndarray, t: float) -> None:
    """Positive-definiteness guard at an accepted grid point."""
    min_eigs = np.linalg.eigvalsh(K)[..., 0]
    if not (min_eigs > definiteness_threshold(K)).all():
        raise LostPositivity(t, float(min_eigs.min()))


def _inverses(K: np.ndarray):
    """K^-1 for a stack of gains (..., n, n), and which of them failed.

    Each member is factored K = L L^T (Cholesky, reading only its lower
    triangle), L is inverted to X = L^-1 by forward substitution, and
    K^-1 = X^T X. All three run as elementwise array operations over the
    whole stack, held on the last axis, one outer-product update per row
    or column: so the number of numpy calls depends only on n, and every
    sum runs in a fixed order, k ascending. A member's bits are therefore
    the same alone and in any stack, and its (i, j) and (j, i) entries are
    the same products summed in the same order, so each inverse is exactly
    symmetric. A member fails, True in the returned (...) mask, when one
    of its pivots is not > 0 (NaN included); its inverse is then garbage,
    and computing it warns of nothing.
    """
    n = K.shape[-1]
    L = K.reshape(-1, n, n).transpose(1, 2, 0).copy()
    X = np.zeros_like(L)
    X[np.arange(n), np.arange(n)] = 1.0
    K_inv = np.zeros_like(L)
    ok = np.ones(L.shape[-1], dtype=bool)
    with np.errstate(all="ignore"):
        for j in range(n):
            pivot = L[j, j]
            ok &= pivot > 0.0
            np.sqrt(pivot, out=pivot)
            col = L[j + 1:, j]
            col /= pivot
            L[j + 1:, j + 1:] -= col[:, None] * col[None, :]
        for k in range(n):
            row = X[k, :k + 1]
            row /= L[k, k]
            X[k + 1:, :k + 1] -= L[k + 1:, k, None] * row[None, :]
        for k in range(n):
            row = X[k, :k + 1]
            K_inv[:k + 1, :k + 1] += row[:, None] * row[None, :]
    return K_inv.transpose(2, 0, 1).reshape(K.shape), ~ok.reshape(K.shape[:-2])


def _stage_inverses(stages: np.ndarray, k0: int, dt: float):
    """Inverses of every stage gain of a chunk, flattened to
    (4 * steps, G, N, n, n) in step order, and the first stage failure.

    The failure is None when every stage gain is positive definite, else
    (step offset, stage, SingularGain, group), naming the first group
    failing at the first such stage, and only the inverses of the stages
    before it are returned: the state pass stops before that stage.
    """
    K_inv, failed = _inverses(stages.reshape((-1,) + stages.shape[2:]))
    where = np.argwhere(failed)
    if not len(where):
        return K_inv, None
    f, g, i = (int(x) for x in where[0])
    k, stage = divmod(f, 4)
    t = (k0 + k) * dt + _STAGE_OFFSETS[stage] * dt
    error = SingularGain(f"at t={t:.6g}: stage gain of node {i + 1} is not positive definite")
    return K_inv[:f], (k, stage, error, g)


def _require_shared_grid(scenarios: list[Scenario]) -> None:
    """DimensionMismatch naming the first property a run does not share
    with the first run: the plant (A, B), N, n, T or dt."""

    def shared(sc: Scenario):
        net = sc.network
        return {"N": net.N, "n": net.n, "T": sc.T, "dt": sc.dt,
                "plant A": net.plant.A, "plant B": net.plant.B}

    first = shared(scenarios[0])
    for r, sc in enumerate(scenarios[1:], start=1):
        for what, value in shared(sc).items():
            if not np.array_equal(value, first[what]):
                raise DimensionMismatch(
                    f"run {r} differs from run 0 in {what}; a batch of runs must "
                    "share the plant (A, B), N, n, T and dt"
                )


def simulate(scenario: Scenario) -> Trajectories:
    """Run the coupled plant / filter / gain integration of one scenario.

    Deterministic given the scenario seed; simulate_runs([scenario])[0].
    Raises MissingTuning when no M^-1 blocks are fixed, and propagates
    LostPositivity / SingularGain / NonFinite with the failing timestamp:
    the earliest failure in step order, exactly as a step-by-step
    integration would meet it.
    """
    return simulate_runs([scenario])[0]


def simulate_seeds(scenario: Scenario, seeds) -> list[Trajectories]:
    """The scenario once per seed: simulate_runs of its copies with those seeds."""
    return simulate_runs([replace(scenario, seed=s) for s in seeds])


def simulate_runs(scenarios) -> list[Trajectories]:
    """Run a batch of scenarios in one engine pass.

    The runs must share the plant (A, B), N, n, T and dt, else
    DimensionMismatch names what differs; they may differ in links, M^-1,
    K0, seed and disturbances. Returns the same bits as [simulate(sc) for sc
    in scenarios]. Every distinct gain variant, a distinct set of gain
    coefficients and K0, is integrated once, and runs of one variant share
    one read-only gain array K.

    Configuration errors (DimensionMismatch, and MissingTuning for a run
    without M^-1) are raised before any run starts, so they win over a
    failure that an earlier run would meet during integration. Failures
    during integration raise what the sequential list would: the failure
    of the first run, in list order, that fails, with its own type and
    timestamp. The batch stops at its first failure in step order, of run
    r, its state turning non-finite or its variant's gain failing; that is
    run r's own failure. It then runs simulate_runs(scenarios[:r]), which
    raises if a run before r fails later, and otherwise raises run r's
    failure. So only a failing batch steps a run twice.
    """
    scenarios = list(scenarios)
    if not scenarios:
        return []
    _require_shared_grid(scenarios)
    first = scenarios[0]
    n, N = first.network.n, first.network.N
    m = n + N * n
    dt = first.dt
    steps = first.steps
    t_grid = first.t_grid()
    reals = [realize_disturbances(sc) for sc in scenarios]

    # Gain variants in order of first use; runs of one variant share its gains.
    keys: dict[tuple, int] = {}
    variants, run_variant = [], []
    for sc in scenarios:
        own = RiccatiCoefficients.for_nodes(sc.network, sc.require_m_inv())
        K0 = np.stack(sc.gain_initial_blocks())
        v = keys.setdefault((own.S.tobytes(), K0.tobytes()), len(keys))
        if v == len(variants):
            variants.append((own, K0))
        run_variant.append(v)
    coeffs = RiccatiCoefficients(
        A=first.network.plant.A, Q=first.network.plant.Q,
        **{part: np.stack([getattr(c, part) for c, _ in variants])
           for part in ("obs_info", "comm_info", "m_inv")},
    )
    Ks = np.empty((len(variants), N, steps + 1, n, n))
    Ks[:, :, 0] = np.stack([K0 for _, K0 in variants])
    # Scenario requires K0 positive definite, so t = 0 only sets the minimum.
    min_gain_eig = np.linalg.eigvalsh(Ks[:, :, 0])[..., 0].min(axis=1)

    # One stacked operator per run, built once per distinct network.
    operators = {id(sc.network): sc.network for sc in scenarios}
    operators = {key: stacked_operator(net) for key, net in operators.items()}
    M = np.stack([operators[id(sc.network)] for sc in scenarios])
    # Each run owns its states, so a caller can release one run's history
    # without the others.
    zs = [np.empty((steps + 1, m)) for _ in scenarios]
    for zs_r, sc, real in zip(zs, scenarios, reals):
        zs_r[0, :n] = real.x0
        zs_r[0, n:] = np.concatenate([node.xi for node in sc.network.nodes])
    z = np.stack([zs_r[0] for zs_r in zs])[..., None]

    chunk = chunk_steps(Ks.shape[:2] + (n, n))
    # The disturbance term covers d_steps steps, a whole number of chunks;
    # a chunk never crosses the end of the block.
    d_steps = chunk * max(1, DISTURBANCE_BYTES // (chunk * m * 8))
    z_stages = tuple(np.empty((4,) + z.shape))
    k0 = d_start = d_end = 0
    while k0 < steps:
        if k0 == d_end:
            d_start, d_end = k0, min(k0 + d_steps, steps)
            d = np.empty((d_end - d_start, len(scenarios), m, 1))
            for d_s, sc, real in zip(np.moveaxis(d, 1, 0), scenarios, reals):
                d_s[:, :, 0] = disturbance_term(sc.network, real, d_start, d_end)
            dxs, dgs = d[:, :, :n], d[:, :, n:]
        # Pass 1: gains of the chunk, their grid guard and stage inverses.
        # A gain failure is kept as (step offset, order within the step,
        # error, variant); within a step, stage factorizations come first,
        # then the grid point after it (non-finite, then positivity).
        stages, min_eigs, grid_failure = gain_pass(
            coeffs, Ks, k0, min(k0 + chunk, d_end), dt, t_grid
        )
        K_inv, stage_failure = _stage_inverses(stages, k0, dt)
        if min_eigs is not None:
            np.minimum(min_gain_eig, min_eigs, out=min_gain_eig)
        events = [ev for ev in (stage_failure, grid_failure) if ev is not None]
        event = min(events, key=lambda ev: ev[:2], default=None)
        end = len(stages) if event is None else event[0] + (event[1] >= 4)
        # (run, error) of the chunk's first failure in step order
        failure = None if event is None else (run_variant.index(event[3]), event[2])

        # Pass 2: every run's plant and estimates through the steps before
        # the gain failure, each with the stage inverses of its variant. A
        # state that turns non-finite fails first, also at the grid point
        # of a gain failure.
        K_inv = K_inv[:, run_variant]
        chunk_z = np.empty((end, len(scenarios), m, 1))
        for c in range(end):
            k = k0 + c
            z_next = chunk_z[c]
            state_step(M, z, K_inv[4 * c:4 * c + 4], dxs[k - d_start], dgs[k - d_start],
                       dt, z_stages, z_next)
            z = z_next
            if not np.isfinite(z).all():
                r = int(np.flatnonzero(~np.isfinite(z).all(axis=(1, 2)))[0])
                failure = r, NonFinite(float(t_grid[k + 1]))
                break
        if failure is not None:
            # Run r failed first, so its failure is its own; a run before it
            # may still fail later, and then the runs before r raise first.
            r, error = failure
            simulate_runs(scenarios[:r])
            raise error
        for zs_r, z_r in zip(zs, np.moveaxis(chunk_z, 1, 0)):
            zs_r[k0 + 1:k0 + 1 + end] = z_r[..., 0]
        k0 += end

    t_grid.flags.writeable = False
    Ks.flags.writeable = False
    gains = list(Ks)
    runs = []
    for sc, zs_s, real, v in zip(scenarios, zs, reals, run_variant):
        runs.append(
            Trajectories(
                t=t_grid,
                x=zs_s[:, :n],
                xhat=np.transpose(zs_s[:, n:].reshape(steps + 1, N, n), (1, 0, 2)),
                K=gains[v],
                realization=real,
                network=sc.network,
                hypotheses={
                    "minv_margin": sc.minv_margin,
                    "gains_positive_definite": True,
                    "min_gain_eigenvalue": float(min_gain_eig[v]),
                },
            )
        )
    return runs


def simulate_error_oracle(
    scenario: Scenario, realization: RealizedDisturbances
) -> ErrorTrajectories:
    """Integrate the stacked error dynamics directly, re-using the realized
    disturbances of a prior run. Cross-validation only: the result must match
    xhat - x from simulate() up to roundoff. It solves with K by LAPACK's
    Cholesky on purpose, so that it checks the engine's _inverses independently.
    """
    net = scenario.network
    coeffs = RiccatiCoefficients.for_nodes(net, scenario.require_m_inv())
    dt = scenario.dt
    steps = scenario.steps
    t_grid = scenario.t_grid()

    e = np.stack([node.xi - realization.x0 for node in net.nodes])
    K = np.stack(scenario.gain_initial_blocks())

    es = np.empty((net.N, steps + 1, net.n))
    es[:, 0] = e
    A, B = net.plant.A, net.plant.B
    w_panels = realization.w.panels(0, steps)
    v_panels = {i: sig.panels(0, steps) for i, sig in realization.v.items()}
    eps_panels = {e: sig.panels(0, steps) for e, sig in realization.eps.items()}

    for k in range(steps):
        t = k * dt
        v = {i: vals[k] for i, vals in v_panels.items()}
        eps = {edge: vals[k] for edge, vals in eps_panels.items()}
        Bw = B @ w_panels[k]

        def rhs(ec, Kc, stage_t):
            inner = error_inner(net, ec, v, eps)
            corr = _spd_solve_batched(Kc, inner, stage_t)
            de = ec @ A.T - Bw[None, :] - corr
            dK = riccati_rhs(Kc, coeffs)
            return de, dK

        de1, dK1 = rhs(e, K, t)
        de2, dK2 = rhs(e + 0.5 * dt * de1, K + 0.5 * dt * dK1, t + 0.5 * dt)
        de3, dK3 = rhs(e + 0.5 * dt * de2, K + 0.5 * dt * dK2, t + 0.5 * dt)
        de4, dK4 = rhs(e + dt * de3, K + dt * dK3, t + dt)

        e = e + (dt / 6.0) * (de1 + 2.0 * de2 + 2.0 * de3 + de4)
        K = K + (dt / 6.0) * (dK1 + 2.0 * dK2 + 2.0 * dK3 + dK4)
        K = 0.5 * (K + np.transpose(K, (0, 2, 1)))

        t_next = float(t_grid[k + 1])
        if not (np.all(np.isfinite(e)) and np.all(np.isfinite(K))):
            raise NonFinite(t_next)
        _check_gains(K, t_next)
        es[:, k + 1] = e

    return ErrorTrajectories(t=t_grid, e=es)


def make_isolated_variant(scenario: Scenario, node_id: int) -> Scenario:
    """Cut every incoming link of one node and drop its attenuation penalty.

    The isolated node runs the plain minimum-energy filter (M^-1 = 0, no
    neighbor terms); outgoing edges are kept, so the rest of the network
    still receives its estimate. Disturbance channels on removed edges are
    dropped; the stable per-channel seeding keeps all other realizations
    identical to the networked run. The variant shares the plant and grid
    of its scenario, so simulate_runs takes both in one batch, as
    `menf reproduce-chua` does: the networked seeds, then the same seeds of
    the node-1 variant, in one pass.
    """
    net = scenario.network
    kept_edges = tuple(e for e in net.edges if e[0] != node_id)
    nodes = []
    for i in net.node_ids():
        node = net.node(i)
        links = {} if i == node_id else dict(node.links)
        nodes.append(
            NodeModel(C=node.C, D=node.D, xi=node.xi, Xcal=node.Xcal, links=links)
        )
    new_net = build_network(scenario.network.plant, nodes, kept_edges)
    m_inv = list(scenario.require_m_inv())
    m_inv[node_id - 1] = np.zeros((net.n, net.n))
    specs = tuple(
        s
        for s in scenario.disturbances
        if not (s.target == "eps" and s.edge[0] == node_id)
    )
    return replace(
        scenario,
        network=new_net,
        disturbances=specs,
        m_inv_blocks=tuple(m_inv),
        minv_margin=None,
    )
