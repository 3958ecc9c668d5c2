"""Coupled plant / filter / gain simulation on a shared fixed-step RK4 grid.

One engine step advances the plant state, all N estimates and all N gains
with the classic RK4 scheme; measurements and neighbor signals are formed
from the *stage* values of x and xhat_j, so the coupled system is
integrated as a single vector field. The engine, simulate_seeds, runs it
for a batch of seeds in two passes over bounded chunks of steps, because
the gains K_i(t) need no data and so are the same for every seed:

1. Gain pass, once per chunk for the whole batch: riccati.gain_pass, the
   package's one gain stepper, runs RK4 on the N gain equations alone,
   keeping the four stage gains of every step of the chunk and guarding
   positivity at the chunk's grid points with one batched eigvalsh. One
   batched Cholesky then factors all stage gains (its failure is
   SingularGain) and gives each K^-1 = L^-T L^-1.
2. State pass. The same steps for every seed's z = [x; xhat_1; ...; xhat_N],
   stacked as (S, m, 1), through filters.filter_field: every stage's
   innovations are one mat-vec per seed with a constant stacked operator
   plus a per-step disturbance term, and K^-1 comes from the cached stage
   inverses. Each seed's bits are those of a run on its own. simulate is
   the batch of one.

A chunk holds riccati.CHUNK_BYTES (128 KB) of stage gains: enough to
amortize the batched calls over tens to hundreds of steps, and small
because the chunk buffers add directly to the peak resident memory of a
run, which the benchmark bounds at +5%. The disturbance term is evaluated
per seed for a block of whole chunks of at most DISTURBANCE_BYTES, so
apart from the stored states and grid samples no buffer spans the whole
grid. Failures keep the timestamps of a step-by-step integration: on a
failed chunk the earliest event in step order wins (stage factorizations,
then non-finite values, then positivity at the next grid point).

All built-in disturbance kinds (zero, pulse, held-gaussian) are piecewise
constant with breakpoints snapped to the grid. Each signal is evaluated
for a whole array of times at once: at step midpoints, which equals its
value at every interior stage time and keeps the scheme at full order
across pulse edges, and at the grid points for the stored samples, where
pulse edges are closed. A channel's energy is dt times the sum of its
squared panel values, exact for every built-in kind.

Everything is deterministic given the scenario seed: the initial state and
each disturbance channel draw from independent streams spawned from the
seed with stable per-channel keys, so removing one channel never reshuffles
the others.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    DimensionMismatch,
    LostPositivity,
    MissingTuning,
    NonFinite,
    NotPositiveDefinite,
    SingularGain,
)
from .filters import disturbance_term, error_inner, filter_field, stacked_operator
from .linalg import definiteness_threshold, require_psd, symmetrize
from .model import Network, NodeModel, build_network
from .riccati import RiccatiCoefficients, chunk_steps, gain_pass, riccati_rhs

GRID_TOL = 1e-9


# ---------------------------------------------------------------------------
# Disturbance specification and realization
# ---------------------------------------------------------------------------

@dataclass
class DisturbanceSpec:
    """One disturbance channel: kind in {zero, pulse, held_gaussian};
    target "w", or "v" with node, or "eps" with edge=(i, j).

    Pulse: amplitude (scalar broadcast or per-component vector) on
    [start, start + duration]. Held-gaussian: i.i.d. N(mean, std^2) values
    held constant over consecutive `hold`-second windows, truncated at the
    horizon so realizations stay square-integrable.
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
        if self.target == "v" and self.node is None:
            raise DimensionMismatch("target 'v' needs a node id")
        if self.target == "eps" and self.edge is None:
            raise DimensionMismatch("target 'eps' needs an edge (i, j)")
        if self.edge is not None:
            self.edge = (int(self.edge[0]), int(self.edge[1]))

    def channel_key(self) -> tuple:
        if self.target == "w":
            return ("w",)
        if self.target == "v":
            return ("v", self.node)
        return ("eps", self.edge[0], self.edge[1])


def _snap_to_grid(value: float, dt: float, what: str) -> float:
    k = round(value / dt)
    snapped = k * dt
    if abs(snapped - value) > GRID_TOL * max(1.0, abs(value)):
        warnings.warn(
            f"{what} {value} not aligned with dt={dt}; snapped to {snapped}",
            stacklevel=3,
        )
    return snapped


def _midpoints(k0: int, k1: int, dt: float) -> np.ndarray:
    """Midpoints of steps k0..k1-1."""
    return np.arange(k0, k1) * dt + 0.5 * dt


class _Signal:
    """Disturbance signal, constant on every integration panel."""

    def __init__(self, dim: int):
        self.dim = dim

    def values(self, t: np.ndarray, closed: bool = False) -> np.ndarray:
        """(len(t), dim) values at the times t.

        Evaluated at step midpoints these are the panel values the
        integrator uses. closed=True gives the grid samples stored for the
        verifier, where a pulse carries its amplitude at both edges.
        """
        raise NotImplementedError

    def energy_on(self, T: float, dt: float) -> float:
        """Exact squared L2 norm on [0, T]: dt * sum of squared panel values,
        since every built-in kind is constant on each panel."""
        panels = self.values(_midpoints(0, int(round(T / dt)), dt))
        return dt * float(np.einsum("ki,ki->", panels, panels))


class _ZeroSignal(_Signal):
    def values(self, t: np.ndarray, closed: bool = False) -> np.ndarray:
        return np.zeros((len(t), self.dim))


class _PulseSignal(_Signal):
    def __init__(self, amplitude: np.ndarray, t0: float, t1: float, dt: float):
        super().__init__(len(amplitude))
        self.amplitude = amplitude
        self.t0 = t0
        self.t1 = t1
        self._tol = 0.25 * dt

    def values(self, t: np.ndarray, closed: bool = False) -> np.ndarray:
        if closed:
            on = ((self.t0 - self._tol) <= t) & (t <= (self.t1 + self._tol))
        else:
            on = (self.t0 < t) & (t < self.t1)
        return np.where(on[:, None], self.amplitude, 0.0)


class _HeldSignal(_Signal):
    def __init__(self, values: np.ndarray, hold: float):
        super().__init__(values.shape[1])
        self.frames = values  # (frames, dim)
        self.hold = hold

    def values(self, t: np.ndarray, closed: bool = False) -> np.ndarray:
        idx = np.floor(t / self.hold + 1e-12).astype(np.intp)
        return self.frames[np.clip(idx, 0, len(self.frames) - 1)]


class _SumSignal(_Signal):
    def __init__(self, parts: list[_Signal], dim: int):
        super().__init__(dim)
        self.parts = parts

    def values(self, t: np.ndarray, closed: bool = False) -> np.ndarray:
        out = np.zeros((len(t), self.dim))
        for p in self.parts:
            out = out + p.values(t, closed)
        return out


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
    data-independent and could equally be solved offline.

    Construction checks everything a run needs of its parts, so a Scenario
    that exists is runnable: T a whole number of dt steps, a fixed x0 of
    dimension n, every disturbance on a channel of the network with a pulse
    amplitude that fits it and a hold of at least one step after snapping,
    and N positive semidefinite n x n blocks of M^-1 and K0. A failed check
    raises DimensionMismatch or NotPositiveDefinite carrying the key path
    of the part ("sim", "sim.x0_law", "disturbances[k]", "gains.K0"); the
    M^-1 checks carry none, since those blocks may come from outside the
    scenario document.
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
        for name, key, blocks in (
            ("M_inv", None, self.m_inv_blocks),
            ("K0", "gains.K0", self.K0_blocks),
        ):
            if blocks is None:
                continue
            if len(blocks) != N or any(np.shape(b) != (n, n) for b in blocks):
                raise DimensionMismatch(
                    f"{name} must be {N} blocks of shape {(n, n)}, got shapes "
                    f"{[np.shape(b) for b in blocks]}"
                ).at(key)
            for i, b in enumerate(blocks, start=1):
                try:
                    require_psd(b, f"{name}_{i}")
                except (DimensionMismatch, NotPositiveDefinite) as exc:
                    raise exc.at(key)

    @property
    def steps(self) -> int:
        return round(self.T / self.dt)

    def t_grid(self) -> np.ndarray:
        return np.arange(self.steps + 1) * self.dt

    def gain_initial_blocks(self) -> tuple[np.ndarray, ...]:
        if self.K0_blocks is not None:
            return tuple(np.asarray(b, dtype=float) for b in self.K0_blocks)
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

    def evaluate(self, t: np.ndarray, closed: bool = False):
        """Every channel at the times t: (w, {i: v_i}, {(i, j): eps_ij}),
        each an array of shape (len(t), dim)."""
        w = self.w.values(t, closed)
        v = {i: sig.values(t, closed) for i, sig in self.v.items()}
        eps = {e: sig.values(t, closed) for e, sig in self.eps.items()}
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
    a = spec.node or (spec.edge[0] if spec.edge else 0)
    b = spec.edge[1] if spec.edge else 0
    seq = np.random.SeedSequence(scenario_seed, spawn_key=(1, tcode, a, b, occurrence))
    return np.random.default_rng(seq)


def _build_signal(
    spec: DisturbanceSpec, dim: int, scenario: Scenario, occurrence: int
) -> _Signal:
    if spec.kind == "zero":
        return _ZeroSignal(dim)
    if spec.kind == "pulse":
        amp = np.asarray(spec.amplitude, dtype=float)
        if amp.ndim == 0:
            amp = np.full(dim, float(amp))
        t0 = _snap_to_grid(spec.start, scenario.dt, "pulse start")
        t1 = _snap_to_grid(spec.start + spec.duration, scenario.dt, "pulse end")
        return _PulseSignal(amp, t0, t1, scenario.dt)
    hold = _snap_to_grid(spec.hold, scenario.dt, "hold interval")
    frames = int(np.ceil(scenario.T / hold))
    rng = _spec_rng(spec, scenario.seed, occurrence)
    values = spec.mean + spec.std * rng.standard_normal((frames, dim))
    return _HeldSignal(values, hold)


def realize_disturbances(scenario: Scenario) -> RealizedDisturbances:
    """Draw x0 and compile every disturbance channel into a signal."""
    net = scenario.network
    rng_x0 = (
        np.random.default_rng(scenario.x0_law.seed)
        if scenario.x0_law.seed is not None
        else np.random.default_rng(np.random.SeedSequence(scenario.seed, spawn_key=(0,)))
    )
    x0 = scenario.x0_law.draw(net.n, rng_x0)

    dims = _channel_dims(net)
    per_channel: dict[tuple, list[_Signal]] = {key: [] for key in dims}
    for spec in scenario.disturbances:
        key = spec.channel_key()
        parts = per_channel[key]
        parts.append(_build_signal(spec, dims[key], scenario, len(parts)))

    def channel(key: tuple) -> _Signal:
        parts = per_channel[key]
        if not parts:
            return _ZeroSignal(dims[key])
        if len(parts) == 1:
            return parts[0]
        return _SumSignal(parts, dims[key])

    w = channel(("w",))
    v = {i: channel(("v", i)) for i in net.node_ids()}
    eps = {(i, j): channel(("eps", i, j)) for (i, j) in net.edges}
    return RealizedDisturbances(x0=x0, w=w, v=v, eps=eps)


# ---------------------------------------------------------------------------
# Trajectories
# ---------------------------------------------------------------------------

@dataclass
class Trajectories:
    """Grid-sampled output of one run. Errors are always recomputed from
    xhat - x, never stored."""

    t: np.ndarray                       # (steps+1,)
    x: np.ndarray                       # (steps+1, n)
    xhat: np.ndarray                    # (N, steps+1, n)
    K: np.ndarray                       # (N, steps+1, n, n)
    w_samples: np.ndarray               # (steps+1, q)
    v_samples: dict[int, np.ndarray]
    eps_samples: dict[tuple[int, int], np.ndarray]
    realization: RealizedDisturbances
    network: Network
    hypotheses: dict = field(default_factory=dict)

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

# Byte budget per seed of the disturbance term held at once. Evaluating it
# costs a few numpy calls per channel, so it spans many gain chunks on
# networks with many channels and short chunks.
DISTURBANCE_BYTES = 256 * 1024

# RK4 stage times as fractions of a step.
_STAGE_OFFSETS = (0.0, 0.5, 0.5, 1.0)


def _spd_solve_batched(K: np.ndarray, rhs: np.ndarray, t: float) -> np.ndarray:
    """Solve K_i z_i = rhs_i for all nodes via batched Cholesky."""
    try:
        L = np.linalg.cholesky(K)
    except np.linalg.LinAlgError as exc:
        raise SingularGain(f"at t={t:.6g}: {exc}") from exc
    y = np.linalg.solve(L, rhs[:, :, None])
    return np.linalg.solve(np.transpose(L, (0, 2, 1)), y)[:, :, 0]


def _check_gains(K: np.ndarray, t: float) -> float:
    """Positive-definiteness guard at an accepted grid point; returns min eig."""
    min_eigs = np.linalg.eigvalsh(K)[..., 0]
    if not (min_eigs > definiteness_threshold(K)).all():
        raise LostPositivity(t, float(min_eigs.min()))
    return float(min_eigs.min())


def _inverses(stages: np.ndarray) -> np.ndarray:
    """K^-1 = L^-T L^-1 for a stack of gains, from one batched Cholesky."""
    L_inv = np.linalg.inv(np.linalg.cholesky(stages))
    return np.matmul(np.swapaxes(L_inv, -1, -2), L_inv)


def _stage_inverses(stages: np.ndarray, k0: int, dt: float):
    """Inverses of every stage gain of a chunk, flattened to (4 * steps, N, n, n)
    in step order.

    When a stage gain is not positive definite, returns the inverses of the
    stages before the first such stage together with its SingularGain.
    """
    flat = stages.reshape((-1,) + stages.shape[2:])
    try:
        return _inverses(flat), None
    except np.linalg.LinAlgError:
        pass
    for f, K in enumerate(flat):
        try:
            np.linalg.cholesky(K)
        except np.linalg.LinAlgError as exc:
            k, stage = divmod(f, 4)
            t = (k0 + k) * dt + _STAGE_OFFSETS[stage] * dt
            error = SingularGain(f"at t={t:.6g}: {exc}")
            error.__cause__ = exc
            return _inverses(flat[:f]), (k, stage, error)
    raise AssertionError("batched Cholesky failed on gains that factor one by one")


def simulate(scenario: Scenario) -> Trajectories:
    """Run the coupled plant / filter / gain integration of one scenario.

    Deterministic given the scenario seed; simulate_seeds(scenario,
    [scenario.seed])[0]. Raises MissingTuning when no M^-1 blocks are fixed,
    and propagates LostPositivity / SingularGain / NonFinite with the failing
    timestamp: the earliest failure in step order, exactly as a step-by-step
    integration would meet it.
    """
    return simulate_seeds(scenario, [scenario.seed])[0]


def simulate_seeds(scenario: Scenario, seeds) -> list[Trajectories]:
    """Run the scenario once per seed, sharing one gain pass.

    Returns the same bits as [simulate(replace(scenario, seed=s)) for s in
    seeds]. The gains need no data, so each chunk's gain pass, stage
    inverses and positivity guard run once; then all S seeds step through
    the chunk together, their states stacked as (S, m, 1) so that every
    stage is one mat-vec per seed. The returned runs share one read-only
    gain array K. On failure this raises what the sequential list would:
    the failure of the first seed, in list order, that fails, with its own
    type and timestamp. A seed whose state turns non-finite is dropped from
    the stack together with every seed after it, so failed seeds emit no
    further numpy warnings.
    """
    scenarios = [replace(scenario, seed=s) for s in seeds]
    if not scenarios:
        return []
    net = scenario.network
    coeffs = RiccatiCoefficients.for_nodes(net, scenario.require_m_inv())
    reals = [realize_disturbances(sc) for sc in scenarios]
    n, N = net.n, net.N
    m = n + N * n
    dt = scenario.dt
    steps = scenario.steps
    t_grid = scenario.t_grid()

    K0 = np.stack([np.asarray(b, dtype=float) for b in scenario.gain_initial_blocks()])
    Ks = np.empty((N, steps + 1, n, n))
    Ks[:, 0] = K0
    min_gain_eig = _check_gains(K0, 0.0)

    M = stacked_operator(net)
    zs = np.empty((len(scenarios), steps + 1, m))
    zs[:, 0, :n] = [real.x0 for real in reals]
    zs[:, 0, n:] = np.concatenate([node.xi for node in net.nodes])
    z = zs[:, 0, :, None].copy()
    # The first `live` seeds are still integrated; history is their part of zs.
    live = len(scenarios)
    history = zs[..., None]
    failed = None

    h2, h6 = 0.5 * dt, dt / 6.0
    chunk = chunk_steps(K0.shape)
    # The disturbance term covers d_steps steps, a whole number of chunks.
    d_steps = chunk * max(1, DISTURBANCE_BYTES // (chunk * m * 8))
    d_start = d_end = 0
    for k0 in range(0, steps, chunk):
        # Pass 1: gains of the chunk, their grid guard and stage inverses.
        # A failure is kept as (step offset, order within the step, error);
        # within a step, stage factorizations come first, then the grid
        # point after it (non-finite, then positivity).
        stages, min_eig, grid_failure = gain_pass(
            coeffs, Ks, k0, min(k0 + chunk, steps), dt, t_grid
        )
        K_inv, failure = _stage_inverses(stages, k0, dt)
        if min_eig is not None:
            min_gain_eig = min(min_gain_eig, min_eig)
        events = [ev for ev in (failure, grid_failure) if ev is not None]
        first = min(events, key=lambda ev: ev[:2]) if events else None
        end = len(stages) if first is None else first[0] + (first[1] >= 4)

        # Pass 2: every live seed's plant and estimates through the same steps.
        if k0 == d_end:
            d_start, d_end = k0, min(k0 + d_steps, steps)
            mids = _midpoints(d_start, d_end, dt)
            d = np.empty((d_end - d_start, live, m, 1))
            for d_s, real in zip(np.moveaxis(d, 1, 0), reals):
                d_s[:, :, 0] = disturbance_term(net, real, mids)
            dxs, dgs = d[:, :, :n], d[:, :, n:]
        for c in range(end):
            k = k0 + c
            dx, dg = dxs[k - d_start], dgs[k - d_start]
            s = 4 * c
            dz1 = filter_field(M, z, K_inv[s], dx, dg)
            dz2 = filter_field(M, z + h2 * dz1, K_inv[s + 1], dx, dg)
            dz3 = filter_field(M, z + h2 * dz2, K_inv[s + 2], dx, dg)
            dz4 = filter_field(M, z + dt * dz3, K_inv[s + 3], dx, dg)
            z = z + h6 * (dz1 + 2.0 * dz2 + 2.0 * dz3 + dz4)
            history[:, k + 1] = z
            if not np.isfinite(z).all():
                live = int(np.flatnonzero(~np.isfinite(z).all(axis=(1, 2)))[0])
                failed = NonFinite(float(t_grid[k + 1]))
                if live == 0:
                    raise failed
                z, dxs, dgs, history = z[:live], dxs[:, :live], dgs[:, :live], history[:live]
        if first is not None:
            raise first[2]
    if failed is not None:
        raise failed

    t_grid.flags.writeable = False
    Ks.flags.writeable = False
    runs = []
    for zs_s, real in zip(zs, reals):
        w_samples, v_samples, eps_samples = real.evaluate(t_grid, closed=True)
        runs.append(
            Trajectories(
                t=t_grid,
                x=zs_s[:, :n],
                xhat=np.transpose(zs_s[:, n:].reshape(steps + 1, N, n), (1, 0, 2)),
                K=Ks,
                w_samples=w_samples,
                v_samples=v_samples,
                eps_samples=eps_samples,
                realization=real,
                network=net,
                hypotheses={
                    "minv_margin": scenario.minv_margin,
                    "gains_positive_definite": True,
                    "min_gain_eigenvalue": min_gain_eig,
                },
            )
        )
    return runs


def simulate_error_oracle(
    scenario: Scenario,
    realization: RealizedDisturbances,
    e0: np.ndarray | None = None,
) -> ErrorTrajectories:
    """Integrate the stacked error dynamics directly, re-using the realized
    disturbances of a prior run. Cross-validation only: the result must match
    xhat - x from simulate() up to roundoff."""
    net = scenario.network
    coeffs = RiccatiCoefficients.for_nodes(net, scenario.require_m_inv())
    dt = scenario.dt
    steps = scenario.steps
    t_grid = scenario.t_grid()

    if e0 is None:
        e = np.stack([node.xi - realization.x0 for node in net.nodes])
    else:
        e = np.asarray(e0, dtype=float).copy()
        if e.shape != (net.N, net.n):
            raise DimensionMismatch(f"e0 must have shape {(net.N, net.n)}, got {e.shape}")
    K = np.stack([np.asarray(b, dtype=float) for b in scenario.gain_initial_blocks()])

    es = np.empty((net.N, steps + 1, net.n))
    es[:, 0] = e
    A, B = net.plant.A, net.plant.B
    w_panels, v_panels, eps_panels = realization.evaluate(_midpoints(0, steps, dt))

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
    identical to the networked run.
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
        if not (s.target == "eps" and s.edge is not None and s.edge[0] == node_id)
    )
    return replace(
        scenario,
        network=new_net,
        disturbances=specs,
        m_inv_blocks=tuple(m_inv),
        minv_margin=None,
    )
