"""Checks of menf's outputs, computed apart from menf.

Nothing here imports menf. Every reference value is rebuilt from the raw
inputs the benchmark generated (plant, sensor and link matrices, edge list,
disturbance specs) with numpy and scipy alone:

* plant states against the exact matrix-exponential step for
  piecewise-constant inputs, within RK4's own truncation bound;
* the attenuation inequality: a Laplacian weighting P built from the edge
  list, the trapezoid of e'Pe, and the exact disturbance budget
  (amp^2 * duration per component for a lone pulse, dt * sum(panel^2)
  otherwise);
* the tuning certificate: Ltilde and DeltaTilde assembled from the link
  matrices, the stacked-condition eigenvalue, and each node's LMI block at
  its witness;
* gain positivity and the isolated-node error ratio.

A check returns numbers; the workloads turn them into pass/fail lines.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import expm

# The node LMI block must sit strictly below this at the witness.
LMI_STRICTNESS = -1e-10
# Relative agreement asked of two computations of the same quantity.
REL_TOL = 1e-9
# Floating-point slack per RK4 step, in units of the state's size.
ROUNDOFF = 64 * np.finfo(float).eps


def sym(x: np.ndarray) -> np.ndarray:
    return 0.5 * (x + x.T)


def rel_gap(a: float, b: float) -> float:
    return abs(a - b) / (1.0 + max(abs(a), abs(b)))


def trapezoid(values: np.ndarray, dt: float) -> float:
    values = np.asarray(values, dtype=float)
    return float(dt * (0.5 * values[0] + values[1:-1].sum() + 0.5 * values[-1]))


# ---------------------------------------------------------------------------
# network matrices from the raw link data
# ---------------------------------------------------------------------------

def laplacian_weight(N: int, edges, P0: np.ndarray, ridge: float) -> np.ndarray:
    """(1/2)(L + L_rev) kron P0 + ridge I, L the in-neighbour Laplacian."""
    adj = np.zeros((N, N))
    for i, j in edges:
        adj[i - 1, j - 1] = 1.0
    lap = np.diag(adj.sum(axis=1)) - adj
    lap_rev = np.diag(adj.sum(axis=0)) - adj.T
    n = P0.shape[0]
    return np.kron(0.5 * (lap + lap_rev), P0) + ridge * np.eye(N * n)


def link_information(W, F, Z) -> np.ndarray:
    """W' U^-1 W with U = F F' + W Z W'."""
    U = F @ F.T + W @ Z @ W.T
    return sym(W.T @ np.linalg.solve(U, W))


def stacked_matrices(n: int, N: int, links: dict):
    """Ltilde, DeltaTilde and the per-node Delta_ii blocks.

    links maps edge (i, j) -> (W, F, Z). Ltilde's diagonal block i is
    DeltaTilde's; block (i, j) is -W'U^-1W for each edge (i, j).
    """
    Lt = np.zeros((n * N, n * N))
    Dt = np.zeros((n * N, n * N))
    delta = [np.zeros((n, n)) for _ in range(N)]
    for (i, j), (W, F, Z) in links.items():
        G = link_information(W, F, Z)
        bi, bj = slice(n * (i - 1), n * i), slice(n * (j - 1), n * j)
        Dt[bi, bi] += G @ Z @ G
        Lt[bi, bj] = -G
        delta[i - 1] += G
    for i in range(N):
        b = slice(n * i, n * (i + 1))
        Lt[b, b] = Dt[b, b]
    return Lt, Dt, delta


def stacked_margin(m_inv_blocks, P, Lt, Dt) -> float:
    """lambda_min of blkdiag(M_i^-1) - P + Ltilde + Ltilde' - DeltaTilde."""
    n = m_inv_blocks[0].shape[0]
    Minv = np.zeros_like(P)
    for i, b in enumerate(m_inv_blocks):
        Minv[n * i:n * (i + 1), n * i:n * (i + 1)] = b
    return float(np.linalg.eigvalsh(sym(Minv - P + Lt + Lt.T - Dt))[0])


def lmi_block_max(A, B, C, D, delta_ii, m_inv, X) -> float:
    """lambda_max of [[A'X + XA - C'R^-1C - Delta_ii + M^-1, XB], [B'X, -I]]."""
    R = D @ D.T
    core = sym(A.T @ X + X @ A - C.T @ np.linalg.solve(R, C) - delta_ii + m_inv)
    XB = X @ B
    block = np.block([[core, XB], [XB.T, -np.eye(B.shape[1])]])
    return float(np.linalg.eigvalsh(sym(block))[-1])


# ---------------------------------------------------------------------------
# disturbances
# ---------------------------------------------------------------------------

def _amplitude(spec: dict, dim: int) -> np.ndarray:
    amp = np.asarray(spec.get("amplitude", 1.0), dtype=float)
    return np.full(dim, float(amp)) if amp.ndim == 0 else amp


def _pulse_edges(spec: dict) -> tuple[float, float]:
    start = float(spec.get("start", 0.0))
    return start, start + float(spec.get("duration", 1.0))


def channel_panels(specs, samples, dt: float, steps: int) -> np.ndarray:
    """Per-step values (steps, dim) of one piecewise-constant channel.

    Pulses are rebuilt from their specs: a panel carries the amplitude when
    its midpoint lies inside the pulse. Held values are random draws, so
    they are read from the grid samples, whose value at t_k is the hold
    frame in force on panel k; the closed pulse edges that the sampled
    form carries (amplitude at both end points) are taken out first.
    """
    dim = samples.shape[1]
    t = np.arange(steps + 1) * dt
    mid = (np.arange(steps) + 0.5) * dt
    panels = np.zeros((steps, dim))
    held = [s for s in specs if s["kind"] == "held_gaussian"]
    if held:
        base = np.array(samples[:steps], dtype=float)
        for s in specs:
            if s["kind"] == "pulse":
                t0, t1 = _pulse_edges(s)
                closed = (t[:steps] >= t0 - 0.25 * dt) & (t[:steps] <= t1 + 0.25 * dt)
                base[closed] -= _amplitude(s, dim)
        panels += base
    for s in specs:
        if s["kind"] == "pulse":
            t0, t1 = _pulse_edges(s)
            panels[(mid > t0) & (mid < t1)] += _amplitude(s, dim)
    return panels


def exact_energy(specs, panels: np.ndarray, dt: float, T: float) -> float:
    """Squared L2 norm of a channel on [0, T]: amp^2 * duration for a lone
    pulse, dt * sum(panel^2) for anything else piecewise constant."""
    if not specs:
        return 0.0
    if len(specs) == 1 and specs[0]["kind"] == "pulse":
        t0, t1 = _pulse_edges(specs[0])
        amp = _amplitude(specs[0], panels.shape[1])
        return float(amp @ amp) * max(0.0, min(t1, T) - max(t0, 0.0))
    return dt * float(np.einsum("ki,ki->", panels, panels))


# ---------------------------------------------------------------------------
# plant states
# ---------------------------------------------------------------------------

def plant_step_excess(A, B, x: np.ndarray, w_panels: np.ndarray, dt: float) -> float:
    """Largest ratio of a step's deviation from the exact solution to the
    RK4 truncation bound; at most 1 on a correct run.

    For x' = A x + b with b constant over the step, the exact step is
    e^{hA} x + h phi1(hA) b, and classic RK4 keeps exactly the Taylor terms
    of both up to (hA)^4. The remainders are bounded by
    e^a (a^5/120 |x| + h a^4/120 |b|) with a = h |A|_2; twice that plus a
    roundoff allowance is the per-step tolerance.
    """
    n = A.shape[0]
    aug = np.zeros((2 * n, 2 * n))
    aug[:n, :n] = A * dt
    aug[:n, n:] = np.eye(n) * dt
    E = expm(aug)
    step, inp = E[:n, :n], E[:n, n:]
    b = w_panels @ B.T
    exact = x[:-1] @ step.T + b @ inp.T
    dev = np.linalg.norm(x[1:] - exact, axis=1)
    a = dt * float(np.linalg.norm(A, 2))
    xn = np.linalg.norm(x, axis=1)
    bound = 2.0 * math.exp(a) * (
        a**5 / 120.0 * xn[:-1] + dt * a**4 / 120.0 * np.linalg.norm(b, axis=1)
    ) + ROUNDOFF * (1.0 + xn[:-1] + xn[1:])
    return float(np.max(dev / bound))


# ---------------------------------------------------------------------------
# attenuation bound
# ---------------------------------------------------------------------------

def lhs_cost(e_stacked: np.ndarray, P: np.ndarray, dt: float) -> float:
    """Trapezoid of e(t)' P e(t); e_stacked is (steps+1, N*n), node-major."""
    return trapezoid(np.einsum("ti,ij,tj->t", e_stacked, P, e_stacked), dt)


def init_budget(x0, nodes) -> float:
    """sum_i |x0 - xi_i|^2 in the Xcal_i norm."""
    total = 0.0
    for node in nodes:
        d = x0 - node["xi"]
        total += float(d @ node["Xcal"] @ d)
    return total


def min_gain_eigenvalue(K: np.ndarray) -> float:
    """Smallest eigenvalue over every stored gain, K of shape (..., n, n)."""
    K = np.asarray(K)
    return float(np.linalg.eigvalsh(K.reshape((-1,) + K.shape[-2:]))[:, 0].min())
