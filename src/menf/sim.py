"""Coupled plant / filter / gain simulation on a shared fixed-step RK4 grid.

One engine step advances the plant state, all N estimates and all N gains
with the classic RK4 scheme; measurements and neighbor signals are formed
from the *stage* values of x and xhat_j, so the coupled system is
integrated as a single vector field. The engine runs it in two passes over
bounded chunks of steps, because the gains K_i(t) need no data:

1. Gain pass. RK4 on the gain equations alone, keeping the four stage
   gains of every step of the chunk. One batched Cholesky factors them all
   (its failure is SingularGain) and gives each K^-1 = L^-T L^-1; one
   batched eigvalsh guards positivity at the chunk's grid points.
2. State pass. The same steps for z = [x; xhat_1; ...; xhat_N], where every
   stage's innovations are one matvec with a constant stacked operator plus
   a per-step disturbance term computed for the whole grid up front, and
   K^-1 comes from the cached stage inverses.

A chunk holds CHUNK_BYTES (128 KB) of stage gains: enough to amortize the
batched calls over tens to hundreds of steps, and small because the chunk
buffers add directly to the peak resident memory of a run, which the
benchmark bounds at +5%. Failures keep the timestamps
of a step-by-step integration: on a failed chunk the earliest event in
step order wins (stage factorizations, then non-finite values, then
positivity at the next grid point).

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
    SingularGain,
)
from .linalg import definiteness_threshold, require_psd, symmetrize
from .model import Network, NeighborLink, NodeModel, PlantModel, build_network

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


def _midpoints(steps: int, dt: float) -> np.ndarray:
    return np.arange(steps) * dt + 0.5 * dt


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
        panels = self.values(_midpoints(int(round(T / dt)), dt))
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
            if self.value.shape != (n,):
                raise DimensionMismatch(
                    f"fixed x0 must have dimension {n}, got {self.value.shape}"
                )
            return self.value.copy()
        return self.mean + self.std * rng.standard_normal(n)


@dataclass
class Scenario:
    """Everything a run needs: network, grid, disturbances, priors, weights.

    m_inv_blocks are the per-node M_i^-1 matrices (PSD; zero allowed). They
    must be fixed before simulation -- the gain equations are
    data-independent and could equally be solved offline.
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
            raise DimensionMismatch("dt must be positive")
        steps = round(self.T / self.dt)
        if steps < 1 or abs(self.T - steps * self.dt) > GRID_TOL * max(1.0, self.T):
            raise DimensionMismatch("T must be an integral number of dt steps")
        self.disturbances = tuple(self.disturbances)

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
        if self.m_inv_blocks is None:
            raise MissingTuning(
                "scenario has no M^-1 blocks; run the tuner or set them explicitly"
            )
        return tuple(
            require_psd(b, f"M_inv_{i}")
            for i, b in enumerate(self.m_inv_blocks, start=1)
        )


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


def _channel_dim(net: Network, spec: DisturbanceSpec) -> int:
    if spec.target == "w":
        return net.plant.q
    if spec.target == "v":
        if spec.node not in set(net.node_ids()):
            raise DimensionMismatch(f"disturbance targets unknown node {spec.node}")
        return net.node(spec.node).p
    if spec.edge not in set(net.edges):
        raise DimensionMismatch(f"disturbance targets unknown edge {spec.edge}")
    return net.link(*spec.edge).m


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
        if amp.shape != (dim,):
            raise DimensionMismatch(
                f"pulse amplitude must be scalar or length {dim}, got {amp.shape}"
            )
        t0 = _snap_to_grid(spec.start, scenario.dt, "pulse start")
        t1 = _snap_to_grid(spec.start + spec.duration, scenario.dt, "pulse end")
        return _PulseSignal(amp, t0, t1, scenario.dt)
    hold = _snap_to_grid(spec.hold, scenario.dt, "hold interval")
    if hold <= 0:
        raise DimensionMismatch("hold interval must be positive")
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

    per_channel: dict[tuple, list[_Signal]] = {}
    occurrences: dict[tuple, int] = {}
    for spec in scenario.disturbances:
        dim = _channel_dim(net, spec)
        key = spec.channel_key()
        occ = occurrences.get(key, 0)
        occurrences[key] = occ + 1
        per_channel.setdefault(key, []).append(
            _build_signal(spec, dim, scenario, occ)
        )

    def channel(key: tuple, dim: int) -> _Signal:
        parts = per_channel.get(key, [])
        if not parts:
            return _ZeroSignal(dim)
        if len(parts) == 1:
            return parts[0]
        return _SumSignal(parts, dim)

    w = channel(("w",), net.plant.q)
    v = {i: channel(("v", i), net.node(i).p) for i in net.node_ids()}
    eps = {
        (i, j): channel(("eps", i, j), net.link(i, j).m)
        for (i, j) in net.edges
    }
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

# Byte budget of the stage gains held for one chunk of the gain pass (four
# RK4 stage gains per step and node). Small on purpose: the chunk's buffers
# (stage gains, Cholesky factors, inverses) add directly to a run's peak
# resident memory, while larger chunks save little more Python overhead.
CHUNK_BYTES = 128 * 1024

# RK4 stage times as fractions of a step.
_STAGE_OFFSETS = (0.0, 0.5, 0.5, 1.0)


class _EngineData:
    """Per-run constant data: the gain equation's coefficients and the
    per-node error-dynamics terms of the cross-check oracle."""

    def __init__(self, net: Network, m_inv_blocks):
        self.net = net
        self.A = net.plant.A
        self.B = net.plant.B
        self.Q = net.plant.Q
        n, N = net.n, net.N
        self.S_const = np.empty((N, n, n))
        for i in net.node_ids():
            node = net.node(i)
            self.S_const[i - 1] = symmetrize(
                node.CtRinvC + net.delta_block(i) - np.asarray(m_inv_blocks[i - 1])
            )
        self.nodes: list[NodeModel] = list(net.nodes)
        self.neighbors = [net.neighbors[i] for i in net.node_ids()]

    def gain_rhs(self, K: np.ndarray) -> np.ndarray:
        KQ = K @ self.Q
        return -KQ @ K + self.S_const - self.A.T @ K - K @ self.A

    def error_inner(self, e, v, eps) -> np.ndarray:
        """(N, n) bracketed term of the error dynamics at one stage."""
        out = np.empty_like(e)
        for idx, node in enumerate(self.nodes):
            inner = node.CtRinvC @ e[idx] - node.CtRinv @ (node.D @ v[idx + 1])
            for j in self.neighbors[idx]:
                link = node.links[j]
                inner = inner + link.WtUinvW @ e[idx]
                inner = inner - link.WtUinv @ (
                    link.W @ e[j - 1] + link.F @ eps[(idx + 1, j)]
                )
            out[idx] = inner
        return out


def _spd_solve_batched(K: np.ndarray, rhs: np.ndarray, t: float) -> np.ndarray:
    """Solve K_i z_i = rhs_i for all nodes via batched Cholesky."""
    try:
        L = np.linalg.cholesky(K)
    except np.linalg.LinAlgError as exc:
        raise SingularGain(f"at t={t:.6g}: {exc}") from exc
    y = np.linalg.solve(L, rhs[:, :, None])
    return np.linalg.solve(np.transpose(L, (0, 2, 1)), y)[:, :, 0]


def _min_eigenvalues(K: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Smallest eigenvalue of every gain in a stack (..., n, n), and whether
    it clears the positive-definiteness threshold."""
    min_eigs = np.linalg.eigvalsh(K)[..., 0]
    return min_eigs, min_eigs > definiteness_threshold(K)


def _check_gains(K: np.ndarray, t: float) -> float:
    """Positive-definiteness guard at an accepted grid point; returns min eig."""
    min_eigs, ok = _min_eigenvalues(K)
    if not ok.all():
        raise LostPositivity(t, float(min_eigs.min()))
    return float(min_eigs.min())


def _stacked_operator(net: Network) -> np.ndarray:
    """Constant ((n + 2Nn) x (n + Nn)) operator on z = [x; xhat_1; ...; xhat_N].

    Its rows give A x, then A xhat_i for every node, then the innovations
    H z without their disturbance term: block row i of H holds C_i^T R_i^-1 C_i
    on x, -(C_i^T R_i^-1 C_i + sum_j W_ij^T U_ij^-1 W_ij) on xhat_i and
    W_ij^T U_ij^-1 W_ij on xhat_j for each edge (i, j), where j sends to i.
    """
    n, N = net.n, net.N
    m = n + N * n
    M = np.zeros((m + N * n, m))
    M[:m, :m] = np.kron(np.eye(N + 1), net.plant.A)
    for i in net.node_ids():
        node = net.node(i)
        rows = slice(m + n * (i - 1), m + n * i)
        M[rows, :n] = node.CtRinvC
        M[rows, n * i:n * (i + 1)] = -(node.CtRinvC + net.delta_block(i))
        for j in net.neighbors[i]:
            M[rows, n * j:n * (j + 1)] = net.link(i, j).WtUinvW
    return M


def _disturbance_term(
    net: Network, real: RealizedDisturbances, steps: int, dt: float
) -> np.ndarray:
    """(steps, n + Nn) per-step inputs [B w_k; g_k] on the panel values, with
    g_k,i = C_i^T R_i^-1 D_i v_i + sum_j W_ij^T U_ij^-1 F_ij eps_ij.

    One channel is evaluated at a time, so no more than one channel's
    panel values are held at once.
    """
    n = net.n
    mids = _midpoints(steps, dt)
    d = np.zeros((steps, n + net.N * n))
    d[:, :n] = real.w.values(mids) @ net.plant.B.T
    for i in net.node_ids():
        node = net.node(i)
        d[:, n * i:n * (i + 1)] += real.v[i].values(mids) @ (node.CtRinv @ node.D).T
    for (i, j) in net.edges:
        link = net.link(i, j)
        d[:, n * i:n * (i + 1)] += real.eps[(i, j)].values(mids) @ (link.WtUinv @ link.F).T
    return d


def _gain_pass(data: _EngineData, Ks: np.ndarray, k0: int, k1: int, dt: float):
    """RK4 gain steps k0..k1-1 from the gain Ks[:, k0], without data.

    Writes each accepted grid gain to Ks[:, k + 1] and returns the stage
    gains, shape (steps, 4, N, n, n), with the step at which the gain first
    became non-finite (None when every step stayed finite). The pass stops
    after that step.
    """
    h2, h6 = 0.5 * dt, dt / 6.0
    K = Ks[:, k0]
    stages = np.empty((k1 - k0, 4) + K.shape)
    for k in range(k0, k1):
        st = stages[k - k0]
        st[0] = K
        dK1 = data.gain_rhs(K)
        st[1] = K + h2 * dK1
        dK2 = data.gain_rhs(st[1])
        st[2] = K + h2 * dK2
        dK3 = data.gain_rhs(st[2])
        st[3] = K + dt * dK3
        dK4 = data.gain_rhs(st[3])
        K = K + h6 * (dK1 + 2.0 * dK2 + 2.0 * dK3 + dK4)
        K = 0.5 * (K + np.transpose(K, (0, 2, 1)))
        Ks[:, k + 1] = K
        if not np.isfinite(K).all():
            return stages[:k - k0 + 1], k
    return stages, None


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
    """Run the coupled plant / filter / gain integration.

    Deterministic given the scenario seed. Raises MissingTuning when no
    M^-1 blocks are fixed, and propagates LostPositivity / SingularGain /
    NonFinite with the failing timestamp: the earliest failure in step
    order, exactly as a step-by-step integration would meet it.
    """
    net = scenario.network
    m_inv = scenario.require_m_inv()
    data = _EngineData(net, m_inv)
    real = realize_disturbances(scenario)
    n, N = net.n, net.N
    m = n + N * n
    dt = scenario.dt
    steps = scenario.steps
    t_grid = scenario.t_grid()

    K0 = np.stack([np.asarray(b, dtype=float) for b in scenario.gain_initial_blocks()])
    for i, K0_i in enumerate(K0, start=1):
        require_psd(K0_i, f"K0_{i}")
    Ks = np.empty((N, steps + 1, n, n))
    Ks[:, 0] = K0
    min_gain_eig = _check_gains(K0, 0.0)

    M = _stacked_operator(net)
    d = _disturbance_term(net, real, steps, dt)
    zs = np.empty((steps + 1, m))
    zs[0, :n] = real.x0
    zs[0, n:] = np.concatenate([node.xi for node in net.nodes])
    z = zs[0].copy()

    def rhs(zc, K_inv, dk):
        y = M @ zc
        dz = y[:m]
        dz[:n] += dk[:n]
        innov = (y[m:] + dk[n:]).reshape(N, n, 1)
        dz[n:] += np.matmul(K_inv, innov).reshape(N * n)
        return dz

    h2, h6 = 0.5 * dt, dt / 6.0
    chunk = max(1, CHUNK_BYTES // (4 * N * n * n * 8))
    for k0 in range(0, steps, chunk):
        # Pass 1: gains of the chunk, their stage inverses and grid guard.
        # A failure is kept as (step offset, order within the step, error);
        # within a step, stage factorizations come first, then the
        # non-finite check at the next grid point, then positivity there.
        stages, k_bad = _gain_pass(data, Ks, k0, min(k0 + chunk, steps), dt)
        K_inv, failure = _stage_inverses(stages, k0, dt)
        finite = len(stages) if k_bad is None else k_bad - k0
        min_eigs, ok = _min_eigenvalues(Ks[:, k0 + 1:k0 + 1 + finite])
        if finite:
            min_gain_eig = min(min_gain_eig, float(min_eigs.min()))
        events = [] if failure is None else [failure]
        if k_bad is not None:
            events.append((k_bad - k0, 4, NonFinite(float(t_grid[k_bad + 1]))))
        lost = np.flatnonzero(~ok.all(axis=0))
        if lost.size:
            c = int(lost[0])
            events.append(
                (c, 5, LostPositivity(float(t_grid[k0 + c + 1]), float(min_eigs[:, c].min())))
            )
        first = min(events, key=lambda ev: ev[:2]) if events else None
        end = len(stages) if first is None else first[0] + (first[1] >= 4)

        # Pass 2: plant and estimates through the same steps.
        for c in range(end):
            k = k0 + c
            dk = d[k]
            s = 4 * c
            dz1 = rhs(z, K_inv[s], dk)
            dz2 = rhs(z + h2 * dz1, K_inv[s + 1], dk)
            dz3 = rhs(z + h2 * dz2, K_inv[s + 2], dk)
            dz4 = rhs(z + dt * dz3, K_inv[s + 3], dk)
            z = z + h6 * (dz1 + 2.0 * dz2 + 2.0 * dz3 + dz4)
            zs[k + 1] = z
            if not np.isfinite(z).all():
                raise NonFinite(float(t_grid[k + 1]))
        if first is not None:
            raise first[2]

    w_samples, v_samples, eps_samples = real.evaluate(t_grid, closed=True)
    return Trajectories(
        t=t_grid,
        x=zs[:, :n],
        xhat=np.transpose(zs[:, n:].reshape(steps + 1, N, n), (1, 0, 2)),
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


def simulate_error_oracle(
    scenario: Scenario,
    realization: RealizedDisturbances,
    e0: np.ndarray | None = None,
) -> ErrorTrajectories:
    """Integrate the stacked error dynamics directly, re-using the realized
    disturbances of a prior run. Cross-validation only: the result must match
    xhat - x from simulate() up to roundoff."""
    net = scenario.network
    data = _EngineData(net, scenario.require_m_inv())
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
    A, B = data.A, data.B
    w_panels, v_panels, eps_panels = realization.evaluate(_midpoints(steps, dt))

    for k in range(steps):
        t = k * dt
        v = {i: vals[k] for i, vals in v_panels.items()}
        eps = {edge: vals[k] for edge, vals in eps_panels.items()}
        Bw = B @ w_panels[k]

        def rhs(ec, Kc, stage_t):
            inner = data.error_inner(ec, v, eps)
            corr = _spd_solve_batched(Kc, inner, stage_t)
            de = ec @ A.T - Bw[None, :] - corr
            dK = data.gain_rhs(Kc)
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


# ---------------------------------------------------------------------------
# Built-in Chua scenario
# ---------------------------------------------------------------------------

CHUA_A = np.array([[-3.2, 10.0, 0.0], [1.0, -1.0, 1.0], [0.0, -14.87, 0.0]])
CHUA_C_WEAK = 0.001 * np.array([[3.1923, -4.6597, 1.0]])
CHUA_C_STRONG = np.array([[-0.8986, 0.1312, -1.9703]])
CHUA_EDGES = ((1, 3), (2, 3), (3, 1), (3, 2), (3, 4), (4, 3), (4, 5), (5, 4))


def chua_network() -> Network:
    """Five-node network observing the chaotic Chua-circuit regime.

    Nodes 1 and 4 carry the nearly uninformative sensor (C scaled by 0.001);
    every link uses W = I, F = 0.5 I, Z = 0.1 I, so U = 0.35 I.
    """
    plant = PlantModel(A=CHUA_A, B=0.4 * np.eye(3))
    Cs = {
        1: CHUA_C_WEAK,
        2: CHUA_C_STRONG,
        3: CHUA_C_STRONG,
        4: CHUA_C_WEAK,
        5: CHUA_C_STRONG,
    }
    nodes = []
    for i in range(1, 6):
        links = {
            j: NeighborLink(W=np.eye(3), F=0.5 * np.eye(3), Z=0.1 * np.eye(3))
            for (a, j) in CHUA_EDGES
            if a == i
        }
        nodes.append(
            NodeModel(
                C=Cs[i],
                D=np.array([[0.025]]),
                xi=np.zeros(3),
                Xcal=10.0 * np.eye(3),
                links=links,
            )
        )
    return build_network(plant, nodes, CHUA_EDGES)


def chua_pulse_specs(net: Network, amplitude: float = 1.0) -> tuple[DisturbanceSpec, ...]:
    """One-second pulses on every disturbance channel (w, each v_i, each eps_ij)."""
    specs = [
        DisturbanceSpec(kind="pulse", target="w", amplitude=amplitude, start=0.0, duration=1.0)
    ]
    for i in net.node_ids():
        specs.append(
            DisturbanceSpec(
                kind="pulse", target="v", node=i, amplitude=amplitude, start=0.0, duration=1.0
            )
        )
    for e in net.edges:
        specs.append(
            DisturbanceSpec(
                kind="pulse", target="eps", edge=e, amplitude=amplitude, start=0.0, duration=1.0
            )
        )
    return tuple(specs)


def chua_held_gaussian_specs(
    net: Network, std: float = 1.0, hold: float = 0.1
) -> tuple[DisturbanceSpec, ...]:
    """Held-gaussian noise on every disturbance channel."""
    specs = [DisturbanceSpec(kind="held_gaussian", target="w", mean=0.0, std=std, hold=hold)]
    for i in net.node_ids():
        specs.append(
            DisturbanceSpec(kind="held_gaussian", target="v", node=i, mean=0.0, std=std, hold=hold)
        )
    for e in net.edges:
        specs.append(
            DisturbanceSpec(kind="held_gaussian", target="eps", edge=e, mean=0.0, std=std, hold=hold)
        )
    return tuple(specs)


def make_chua_scenario(
    seed: int,
    *,
    disturbance_kind: str = "pulse",
    pulse_amplitude: float = 1.0,
    gaussian_std: float = 1.0,
    tuning=None,
) -> Scenario:
    """The built-in desk-scale reproduction scenario.

    T = 10 s at dt = 1e-3, K_i(0) = 10 I, x0 ~ N(0.1, 0.2^2) per coordinate,
    one-second disturbance pulses on every channel (or held-gaussian noise),
    and M^-1 tuned against P = (1/2)(L + L_rev) (x) I + 0.01 I. Pass a
    TuningResult to skip the tuning solve.
    """
    from .tuning import laplacian_P, tune_scalar

    net = chua_network()
    if tuning is None:
        P = laplacian_P(net, np.eye(3), ridge=0.01)
        tuning = tune_scalar(net, P)
    if disturbance_kind == "pulse":
        specs = chua_pulse_specs(net, pulse_amplitude)
    elif disturbance_kind == "held_gaussian":
        specs = chua_held_gaussian_specs(net, std=gaussian_std)
    elif disturbance_kind == "zero":
        specs = ()
    else:
        raise DimensionMismatch(f"unknown disturbance kind {disturbance_kind!r}")
    return Scenario(
        network=net,
        T=10.0,
        dt=1e-3,
        seed=seed,
        x0_law=X0Law(kind="gaussian", mean=0.1, std=0.2),
        disturbances=specs,
        m_inv_blocks=tuning.m_inv_blocks,
        K0_blocks=tuple(10.0 * np.eye(3) for _ in range(net.N)),
        minv_margin=tuning.minv_margin,
    )


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
