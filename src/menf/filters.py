"""The node filter vector field and the matching error dynamics.

Node i's filter is

    dxhat_i/dt = A xhat_i + K_i^-1 (C_i^T R_i^-1 (y_i - C_i xhat_i)
                                    + sum_j W_ij^T U_ij^-1 (c_ij - W_ij xhat_i))

with y_i = C_i x + D_i v_i and c_ij = W_ij xhat_j + F_ij eps_ij. The engine
steps it for all nodes at once, together with the plant dx/dt = A x + B w,
on the stacked state z = [x; xhat_1; ...; xhat_N]: filter_field applies the
constant stacked_operator of the network and adds the panel inputs of
disturbance_term, and state_step is its one RK4 step. The gains enter as
cached inverses K_i^-1.

error_inner is the same field written for the errors e_i = xhat_i - x, one
node at a time. simulate_error_oracle integrates it with its own Cholesky
solves as an independent cross-check of the engine.
"""

from __future__ import annotations

import numpy as np

from .linalg import rk4_step
from .model import Network


def stacked_operator(net: Network) -> np.ndarray:
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


def disturbance_term(net: Network, real, k0: int, k1: int) -> np.ndarray:
    """(k1 - k0, n + Nn) inputs [B w_k; g_k] of a realization on the steps
    k0..k1-1, from its panel values, with
    g_k,i = C_i^T R_i^-1 D_i v_i + sum_j W_ij^T U_ij^-1 F_ij eps_ij.

    One channel is read at a time, so no more than one channel's panel
    values are held at once.
    """
    n = net.n
    d = np.zeros((k1 - k0, n + net.N * n))
    d[:, :n] = real.w.panels(k0, k1) @ net.plant.B.T
    for i in net.node_ids():
        node = net.node(i)
        d[:, n * i:n * (i + 1)] += real.v[i].panels(k0, k1) @ (node.CtRinv @ node.D).T
    for (i, j) in net.edges:
        link = net.link(i, j)
        d[:, n * i:n * (i + 1)] += real.eps[(i, j)].panels(k0, k1) @ (link.WtUinv @ link.F).T
    return d


def filter_field(M: np.ndarray, z, K_inv, dx, dg) -> np.ndarray:
    """dz/dt for a stack of states z (S, n + Nn, 1).

    M is the stacked_operator, shared (rows, n + Nn) or one per state
    (S, rows, n + Nn); K_inv the gain inverses of the stage, shared
    (N, n, n) or one set per state (S, N, n, n); and dx (S, n, 1) and
    dg (S, Nn, 1) the two parts of the stage's disturbance_term.
    """
    N, n = K_inv.shape[-3], K_inv.shape[-1]
    m = M.shape[-1]
    y = np.matmul(M, z)
    dz = y[:, :m]
    dz[:, :n] += dx
    innov = (y[:, m:] + dg).reshape(len(z), N, n, 1)
    dz[:, n:] += np.matmul(K_inv, innov).reshape(len(z), N * n, 1)
    return dz


def state_step(M: np.ndarray, z, K_inv, dx, dg, dt: float, stages, out) -> None:
    """One RK4 step of filter_field from the states z (S, n + Nn, 1), with
    K_inv[s] the gain inverses of stage s and M, dx, dg as there: writes the
    four stage states to stages, four arrays shaped like z, and the states
    one step later to out."""
    rk4_step(lambda s, zs: filter_field(M, zs, K_inv[s], dx, dg), z, dt, stages, out)


def error_inner(net: Network, e, v, eps) -> np.ndarray:
    """(N, n) bracketed term of the error dynamics, node by node:

        de_i/dt = A e_i - B w - K_i^-1 ((C_i^T R_i^-1 C_i + sum_j W_ij^T U_ij^-1 W_ij) e_i
                                        - C_i^T R_i^-1 D_i v_i
                                        - sum_j W_ij^T U_ij^-1 (W_ij e_j + F_ij eps_ij)).
    """
    out = np.empty_like(e)
    for i, node in zip(net.node_ids(), net.nodes):
        inner = node.CtRinvC @ e[i - 1] - node.CtRinv @ (node.D @ v[i])
        for j in net.neighbors[i]:
            link = node.links[j]
            inner = inner + link.WtUinvW @ e[i - 1]
            inner = inner - link.WtUinv @ (link.W @ e[j - 1] + link.F @ eps[(i, j)])
        out[i - 1] = inner
    return out
