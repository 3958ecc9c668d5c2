import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from menf import DisturbanceSpec, Scenario, SingularGain, X0Law, realize_disturbances
from menf.filters import disturbance_term, error_inner, filter_field, stacked_operator
from menf.sim import _inverses, _spd_solve_batched, _stage_inverses

from conftest import make_single_node_network, make_two_node_network

# Bound on the engine's field against a reference, relative to the size of
# the terms it sums, as engine_field returns it: about 45 ulp.
REL_TOL = 1e-14


def elementwise_filter_oracle(plant, node, neighbors, K, xhat, y, c):
    """Index-by-index evaluation of the filter field with explicit inverses."""
    n = len(xhat)
    Kinv = np.linalg.inv(K)
    Rinv = np.linalg.inv(node.R)
    innov = node.C.T @ Rinv @ (y - node.C @ xhat)
    for j in neighbors:
        link = node.links[j]
        Uinv = np.linalg.inv(link.U)
        innov = innov + link.W.T @ Uinv @ (c[j] - link.W @ xhat)
    out = np.zeros(n)
    for r in range(n):
        acc = 0.0
        for k in range(n):
            acc += plant.A[r, k] * xhat[k] + Kinv[r, k] * innov[k]
        out[r] = acc
    return out


def engine_field(net, x, xhat, K, w=None, v=None, eps=None):
    """The engine's field at one state, with the disturbances as panel values
    realized from pulses: (dz/dt, the size of the terms it sums). Missing
    disturbances are zero."""
    dt = 1e-3
    pulse = dict(kind="pulse", duration=dt)
    specs = [] if w is None else [DisturbanceSpec(target="w", amplitude=w, **pulse)]
    specs += [
        DisturbanceSpec(target="v", node=i, amplitude=a, **pulse) for i, a in (v or {}).items()
    ]
    specs += [
        DisturbanceSpec(target="eps", edge=e, amplitude=a, **pulse) for e, a in (eps or {}).items()
    ]
    scenario = Scenario(
        network=net, T=dt, dt=dt, seed=0,
        x0_law=X0Law(kind="fixed", value=x), disturbances=tuple(specs),
    )
    d = disturbance_term(net, realize_disturbances(scenario), 0, 1)[0]
    n = net.n
    z = np.concatenate([x] + [xhat[i] for i in net.node_ids()])
    K_inv = _inverses(np.stack([K[i] for i in net.node_ids()]))[0]
    M = stacked_operator(net)
    dz = filter_field(M, z[None, :, None], K_inv, d[None, :n, None], d[None, n:, None])
    # |A| |z| + |B w|, then per node |K^-1| (|H| |z| + |g|)
    m = len(z)
    size = np.abs(M) @ np.abs(z)
    size[:n] += np.abs(d[:n])
    size[m:] += np.abs(d[n:])
    inner = size[m:].reshape(net.N, n, 1)
    size[n:m] += np.matmul(np.abs(K_inv), inner).reshape(-1)
    return dz[0, :, 0], size[:m]


def split(net, dz):
    n = net.n
    return dz[:n], {i: dz[n * i:n * (i + 1)] for i in net.node_ids()}


def test_zero_innovation_reduces_to_plant_drift(chua_net):
    # every estimate equal to x, no disturbance: the innovations cancel
    rng = np.random.default_rng(0)
    x = rng.standard_normal(3)
    ids = chua_net.node_ids()
    dz, size = engine_field(chua_net, x, {i: x for i in ids}, {i: np.eye(3) for i in ids})
    drift = np.tile(chua_net.plant.A @ x, chua_net.N + 1)
    assert np.all(np.abs(dz - drift) <= REL_TOL * size)


def test_identity_gain_observer():
    # no neighbors, C=I, R=I, K=I, A=0: dxhat/dt = y - xhat with y = x
    net = make_single_node_network(a=0.0, b=1.0, c=1.0, d=1.0)
    dz, _ = engine_field(net, np.array([1.5]), {1: np.array([0.7])}, {1: np.eye(1)})
    assert dz[0] == 0.0
    assert dz[1] == pytest.approx(0.8, abs=1e-15)


def test_filter_rhs_matches_elementwise_oracle(chua_net):
    rng = np.random.default_rng(5)
    ids = chua_net.node_ids()
    x = rng.standard_normal(3)
    xhat = {i: rng.standard_normal(3) for i in ids}
    K = {i: np.eye(3) * 2.0 + 0.3 * np.ones((3, 3)) for i in ids}
    w = rng.standard_normal(chua_net.plant.q)
    v = {i: rng.standard_normal(chua_net.node(i).p) for i in ids}
    eps = {e: rng.standard_normal(chua_net.link(*e).m) for e in chua_net.edges}
    dz, size = engine_field(chua_net, x, xhat, K, w, v, eps)
    (dx, dxhat), (_, size_hat) = split(chua_net, dz), split(chua_net, size)
    np.testing.assert_allclose(
        dx, chua_net.plant.A @ x + chua_net.plant.B @ w, rtol=0, atol=1e-15
    )
    for i in ids:
        node = chua_net.node(i)
        y = node.C @ x + node.D @ v[i]
        c = {
            j: chua_net.link(i, j).W @ xhat[j] + chua_net.link(i, j).F @ eps[(i, j)]
            for j in chua_net.neighbors[i]
        }
        oracle = elementwise_filter_oracle(
            chua_net.plant, node, chua_net.neighbors[i], K[i], xhat[i], y, c
        )
        assert np.all(np.abs(dxhat[i] - oracle) <= REL_TOL * size_hat[i]), i


def test_error_rhs_zero_at_equilibrium(chua_net):
    ids = chua_net.node_ids()
    inner = error_inner(
        chua_net,
        np.zeros((chua_net.N, 3)),
        {i: np.zeros(chua_net.node(i).p) for i in ids},
        {e: np.zeros(chua_net.link(*e).m) for e in chua_net.edges},
    )
    assert np.array_equal(inner, np.zeros((chua_net.N, 3)))
    zero = np.zeros(3)
    dz, _ = engine_field(chua_net, zero, {i: zero for i in ids}, {i: np.eye(3) for i in ids})
    assert np.array_equal(dz, np.zeros(3 * (chua_net.N + 1)))


def test_error_rhs_isolates_model_disturbance(chua_net):
    # e = 0, v = 0, eps = 0: every node's error moves by -B w
    w = np.array([0.4, -0.2, 1.1])
    ids = chua_net.node_ids()
    zero = np.zeros(3)
    dz, _ = engine_field(chua_net, zero, {i: zero for i in ids}, {i: np.eye(3) for i in ids}, w)
    dx, dxhat = split(chua_net, dz)
    for i in ids:
        np.testing.assert_allclose(dxhat[i] - dx, -chua_net.plant.B @ w, atol=1e-15)


def test_filter_minus_plant_equals_error_dynamics():
    # randomized identity between the engine's field and the oracle's
    # error dynamics
    net = make_two_node_network(n=3, seed=9)
    rng = np.random.default_rng(42)
    for trial in range(25):
        x = rng.standard_normal(3)
        xhat = {i: rng.standard_normal(3) for i in (1, 2)}
        w = rng.standard_normal(net.plant.q)
        v = {i: rng.standard_normal(net.node(i).p) for i in (1, 2)}
        K = {}
        for i in (1, 2):
            G = rng.standard_normal((3, 3))
            K[i] = G @ G.T + 2.0 * np.eye(3)
        eps = {(1, 2): rng.standard_normal(net.link(1, 2).m)}
        dx, dxhat = split(net, engine_field(net, x, xhat, K, w, v, eps)[0])
        e = np.stack([xhat[i] - x for i in (1, 2)])
        inner = error_inner(net, e, v, eps)
        for i in (1, 2):
            de = net.plant.A @ e[i - 1] - net.plant.B @ w - np.linalg.solve(K[i], inner[i - 1])
            np.testing.assert_allclose(dxhat[i] - dx, de, rtol=0, atol=1e-9)


def test_gain_application_is_solve_based():
    # the oracle's Cholesky solves and the engine's cached X^T X, X = L^-1, both
    # agree with the explicit-inverse reference on well-conditioned gains
    rng = np.random.default_rng(8)
    K = np.stack([np.diag([2.0, 3.0, 5.0]), np.eye(3) * 2.0 + 0.3 * np.ones((3, 3))])
    rhs = rng.standard_normal((2, 3))
    reference = np.stack([np.linalg.inv(K[i]) @ rhs[i] for i in range(2)])
    np.testing.assert_allclose(_spd_solve_batched(K, rhs, 0.0), reference, rtol=0, atol=1e-12)
    engine = np.matmul(_inverses(K)[0], rhs[:, :, None])[:, :, 0]
    np.testing.assert_allclose(engine, reference, rtol=0, atol=1e-12)


def test_singular_gain_detected():
    K_bad = np.diag([1.0, -1.0, 1.0])
    with pytest.raises(SingularGain):
        _spd_solve_batched(np.stack([np.eye(3), K_bad]), np.zeros((2, 3)), 0.0)
    # three steps of two gain variants of two nodes' stage gains; node 2 of
    # the second variant fails at the midpoint stage of the second step
    stages = np.tile(np.eye(3), (3, 4, 2, 2, 1, 1))
    stages[1, 2, 1, 1] = K_bad
    inverses, (step, stage, error, variant) = _stage_inverses(stages, 10, 1e-3)
    assert (step, stage, variant) == (1, 2, 1)
    assert len(inverses) == 4 + 2
    assert isinstance(error, SingularGain)
    assert "at t=0.0115:" in str(error)


_BAD_KINDS = ("indefinite", "zero", "nan", "+inf", "-inf")


def _lower_symmetrized(K):
    """K with its strict upper triangle replaced by the mirrored lower one."""
    return np.tril(K) + np.tril(K, -1).swapaxes(-1, -2)


def _cholesky_rejects(K) -> bool:
    """Whether LAPACK's Cholesky of one matrix fails: it raises, or it
    returns a NaN pivot, which OpenBLAS's unblocked potf2 lets through
    (NaN <= 0 is false)."""
    try:
        L = np.linalg.cholesky(K)
    except np.linalg.LinAlgError:
        return True
    return bool(np.isnan(np.diagonal(L)).any())


def _stage_member(rng, n, kind):
    """One stage gain: Q diag(lam) Q^T with a spread spectrum (condition
    number up to 1e8) and a strict upper triangle that is noise or NaN, so
    only the lower triangle defines it; or a member of one of _BAD_KINDS."""
    Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    lam = 10.0 ** rng.uniform(-8.0, 0.0, n) * 10.0 ** rng.uniform(-3.0, 3.0)
    if kind == "indefinite":
        lam[rng.integers(n)] = -lam.max() * rng.uniform(0.01, 1.0)
    K = (Q * lam) @ Q.T
    upper = np.triu_indices(n, 1)
    K[upper] = np.nan if rng.random() < 0.5 else K[upper] + rng.standard_normal(len(upper[0]))
    if kind == "zero":
        K = np.zeros((n, n))
    elif kind in ("nan", "+inf", "-inf"):
        i = int(rng.integers(n))
        K[i, rng.integers(i + 1)] = float(kind)
    return K


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 6),
    shape=st.tuples(st.integers(1, 12), st.integers(1, 3), st.integers(1, 2)),
    seed=st.integers(0, 2**32 - 1),
    bad=st.lists(st.tuples(st.integers(0, 10**6), st.sampled_from(_BAD_KINDS)), max_size=3),
)
@example(n=3, shape=(2, 2, 2), seed=0, bad=[(0, "nan")])
@example(n=1, shape=(1, 1, 1), seed=1, bad=[(0, "zero")])
def test_stage_inverses_against_lapack_alone_and_in_any_stack(n, shape, seed, bad):
    # (steps, 4 stages, G groups, N nodes) stage gains of one chunk, up to
    # 288 matrices; the bad members land at any flat index, 0 included
    steps, G, N = shape
    rng = np.random.default_rng(seed)
    kinds = ["spd"] * (steps * 4 * G * N)
    for pos, kind in bad:
        kinds[pos % len(kinds)] = kind
    flat = np.stack([_stage_member(rng, n, kind) for kind in kinds])
    stages = flat.reshape((steps, 4, G, N, n, n))
    rejected = np.array([_cholesky_rejects(K) for K in flat])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        K_inv, failed = _inverses(flat)
        alone = [_inverses(K[None]) for K in flat]
        inverses, failure = _stage_inverses(stages, 10, 1e-3)
    assert failed.tolist() == rejected.tolist()
    # exactly symmetric, and the same bits alone as in the stack
    passed = ~failed
    assert np.array_equal(K_inv[passed], K_inv[passed].swapaxes(-1, -2))
    for j, (inv, fail) in enumerate(alone):
        assert fail.tolist() == [failed[j]]
        if passed[j]:
            assert inv[0].tobytes() == K_inv[j].tobytes()
    eps = np.finfo(float).eps
    for j in np.flatnonzero(passed & np.isfinite(flat).all(axis=(1, 2))):
        K = _lower_symmetrized(flat[j])
        reference = np.linalg.inv(K)
        tol = 10 * n * eps * np.linalg.cond(K) * np.abs(reference).max()
        assert np.abs(K_inv[j] - reference).max() <= tol
    # a chunk fails at its first rejected member, in step, stage, group order
    first = np.flatnonzero(rejected)
    f = first[0] // (G * N) if first.size else 4 * steps
    assert inverses.shape == (f, G, N, n, n)
    assert inverses.tobytes() == K_inv.reshape((-1, G, N, n, n))[:f].tobytes()
    if not first.size:
        assert failure is None
    else:
        g, i = divmod(first[0] % (G * N), N)
        assert failure[:2] == divmod(f, 4) and failure[3] == g
        assert isinstance(failure[2], SingularGain) and f"node {i + 1} " in str(failure[2])
