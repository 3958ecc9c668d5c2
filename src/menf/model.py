"""Plant, node and network data model with derived and stacked matrices.

A Network couples one linear plant with N sensing nodes over a directed
graph: edge (i, j) means node j sends its estimate to node i, and the
neighborhood of i is N_i = {j : (i, j) in edges}. Node ids are 1-based in
every interface. The per-part derived matrices (Q, R_i, S_ij, U_ij and
their products with C_i and W_ij) are computed once at construction and
the arrays are frozen, so instances are safe to share across threads. The
stacked Delta, DeltaTilde and Ltilde are not cached: assemble_global builds
them on each call, and Network.delta_block and delta_tilde_block sum their
block on each call.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, SelfLoop
from .linalg import as_matrix, as_vector, require_psd, require_spd, symmetrize


def _freeze(*arrays: np.ndarray) -> None:
    for a in arrays:
        a.setflags(write=False)


@dataclass
class PlantModel:
    """Continuous-time plant dx/dt = A x + B w with disturbance map B.

    Q = B B^T is cached; it must be positive semidefinite.
    """

    A: np.ndarray
    B: np.ndarray
    Q: np.ndarray = field(init=False)

    def __post_init__(self):
        self.A = as_matrix(self.A, "A")
        self.B = as_matrix(self.B, "B")
        if self.A.shape[0] != self.A.shape[1]:
            raise DimensionMismatch(f"A must be square, got shape {self.A.shape}")
        if self.B.shape[0] != self.A.shape[0]:
            raise DimensionMismatch(
                f"B must have {self.A.shape[0]} rows, got shape {self.B.shape}"
            )
        self.Q = require_psd(self.B @ self.B.T, "Q = B B^T")
        _freeze(self.A, self.B, self.Q)

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def q(self) -> int:
        return self.B.shape[1]


@dataclass
class NeighborLink:
    """One communication link: connectivity W, noise map F, confidence Z.

    Derived: S = F F^T (positive definite), U = S + W Z W^T (positive
    definite), and the information-form products W^T U^-1 and W^T U^-1 W
    used by the filter and the Riccati equations.
    """

    W: np.ndarray
    F: np.ndarray
    Z: np.ndarray
    S: np.ndarray = field(init=False)
    U: np.ndarray = field(init=False)
    WtUinv: np.ndarray = field(init=False)
    WtUinvW: np.ndarray = field(init=False)

    def __post_init__(self):
        self.W = as_matrix(self.W, "W")
        self.F = as_matrix(self.F, "F")
        m = self.W.shape[0]
        if self.F.shape != (m, m):
            raise DimensionMismatch(
                f"F must be {m}x{m} to match W's row count, got {self.F.shape}"
            )
        self.S = require_spd(self.F @ self.F.T, "S = F F^T")
        self.Z = require_spd(self.Z, "Z")
        if self.Z.shape[0] != self.W.shape[1]:
            raise DimensionMismatch(
                f"Z must be {self.W.shape[1]}x{self.W.shape[1]}, got {self.Z.shape}"
            )
        self.U = require_spd(self.S + self.W @ self.Z @ self.W.T, "U = S + W Z W^T")
        self.WtUinv = np.linalg.solve(self.U, self.W).T
        self.WtUinvW = symmetrize(self.WtUinv @ self.W)
        _freeze(self.W, self.F, self.Z, self.S, self.U, self.WtUinv, self.WtUinvW)

    @property
    def m(self) -> int:
        return self.W.shape[0]


@dataclass
class NodeModel:
    """Per-node sensing (C, D), initialization prior (xi, Xcal) and links.

    links maps 1-based neighbor id -> NeighborLink; build_network checks the
    key set against the edge set, and C's columns and Xcal against the
    plant's state dimension. R = D D^T must be positive definite.
    """

    C: np.ndarray
    D: np.ndarray
    xi: np.ndarray
    Xcal: np.ndarray
    links: dict[int, NeighborLink] = field(default_factory=dict)
    R: np.ndarray = field(init=False)
    CtRinv: np.ndarray = field(init=False)
    CtRinvC: np.ndarray = field(init=False)

    def __post_init__(self):
        self.C = as_matrix(self.C, "C")
        self.D = as_matrix(self.D, "D")
        p = self.C.shape[0]
        if self.D.shape != (p, p):
            raise DimensionMismatch(
                f"D must be {p}x{p} to match C's row count, got {self.D.shape}"
            )
        self.R = require_spd(self.D @ self.D.T, "R = D D^T")
        self.xi = as_vector(self.xi, "xi")
        self.Xcal = require_spd(self.Xcal, "Xcal")
        if self.xi.shape != self.Xcal.shape[:1]:
            raise DimensionMismatch(
                f"xi must have dimension {self.Xcal.shape[0]} to match Xcal, "
                f"got {self.xi.shape}"
            )
        self.CtRinv = np.linalg.solve(self.R, self.C).T
        self.CtRinvC = symmetrize(self.CtRinv @ self.C)
        _freeze(self.C, self.D, self.xi, self.Xcal, self.R, self.CtRinv, self.CtRinvC)

    @property
    def p(self) -> int:
        return self.C.shape[0]


@dataclass
class Network:
    """Immutable plant + nodes + directed edges and each node's neighbors."""

    plant: PlantModel
    nodes: tuple[NodeModel, ...]
    edges: tuple[tuple[int, int], ...]
    neighbors: dict[int, tuple[int, ...]] = field(init=False)

    def __post_init__(self):
        self.nodes = tuple(self.nodes)
        self.edges = tuple(sorted(set(map(tuple, self.edges))))
        nbrs: dict[int, list[int]] = {i: [] for i in self.node_ids()}
        for (i, j) in self.edges:
            nbrs[i].append(j)
        self.neighbors = {i: tuple(sorted(js)) for i, js in nbrs.items()}

    @property
    def n(self) -> int:
        return self.plant.n

    @property
    def N(self) -> int:
        return len(self.nodes)

    def node_ids(self) -> range:
        return range(1, len(self.nodes) + 1)

    def node(self, i: int) -> NodeModel:
        return self.nodes[i - 1]

    def link(self, i: int, j: int) -> NeighborLink:
        return self.node(i).links[j]

    def delta_block(self, i: int) -> np.ndarray:
        """Sum over j in N_i of W^T U^-1 W for node i (n x n)."""
        out = np.zeros((self.n, self.n))
        for j in self.neighbors[i]:
            out += self.link(i, j).WtUinvW
        return symmetrize(out)

    def delta_tilde_block(self, i: int) -> np.ndarray:
        """Sum over j in N_i of (W^T U^-1 W) Z (W^T U^-1 W) for node i."""
        out = np.zeros((self.n, self.n))
        for j in self.neighbors[i]:
            link = self.link(i, j)
            out += link.WtUinvW @ link.Z @ link.WtUinvW
        return symmetrize(out)


@dataclass
class GlobalMatrices:
    """Stacked nN x nN matrices of the network: Delta, DeltaTilde and Ltilde."""

    Delta: np.ndarray
    DeltaTilde: np.ndarray
    Ltilde: np.ndarray


def build_network(plant: PlantModel, nodes, edges) -> Network:
    """Validate topology and dimensions, returning a Network. The stacked
    matrices are not built here: assemble_global builds them per call.

    Raises SelfLoop, DimensionMismatch or NotPositiveDefinite (definiteness is
    already enforced by the model constructors; this adds the cross checks
    that need the full network: dimensions against n, edge/link agreement).
    A node's dimension error carries the key path of the node's C or Xcal,
    a W error the key "links".
    """
    nodes = tuple(nodes)
    n = plant.n
    ids = set(range(1, len(nodes) + 1))
    edge_list = []
    for e in edges:
        i, j = int(e[0]), int(e[1])
        if i == j:
            raise SelfLoop(i)
        if i not in ids or j not in ids:
            raise DimensionMismatch(f"edge ({i}, {j}) references an unknown node id")
        edge_list.append((i, j))
    edge_set = set(edge_list)

    for idx, node in enumerate(nodes, start=1):
        if node.C.shape[1] != n:
            raise DimensionMismatch(
                f"C_{idx} must have {n} columns, got {node.C.shape}"
            ).at(f"nodes[{idx}].C")
        if node.Xcal.shape != (n, n):
            raise DimensionMismatch(
                f"Xcal_{idx} must be {n}x{n}, got {node.Xcal.shape}"
            ).at(f"nodes[{idx}].Xcal")
        expected = {j for (i, j) in edge_set if i == idx}
        if set(node.links) != expected:
            raise DimensionMismatch(
                f"node {idx} links keyed by {sorted(node.links)} but edges imply "
                f"neighborhood {sorted(expected)}"
            )
        for j, link in node.links.items():
            if link.W.shape[1] != n:
                raise DimensionMismatch(
                    f"W_{idx}{j} must have {n} columns, got {link.W.shape}"
                ).at("links")
    return Network(plant=plant, nodes=nodes, edges=tuple(edge_set))


def assemble_global(net: Network) -> GlobalMatrices:
    """Assemble the stacked matrices Delta, DeltaTilde and Ltilde.

    Ltilde's blocks: diagonal block i is DeltaTilde's block i; block (i, j)
    is -W^T U^-1 W for j in N_i and zero otherwise.
    """
    n, N = net.n, net.N
    Delta = np.zeros((n * N, n * N))
    DeltaTilde = np.zeros((n * N, n * N))
    Ltilde = np.zeros((n * N, n * N))

    def blk(i: int, j: int) -> tuple[slice, slice]:
        return slice(n * (i - 1), n * i), slice(n * (j - 1), n * j)

    for i in net.node_ids():
        Delta[blk(i, i)] = net.delta_block(i)
        DeltaTilde[blk(i, i)] = Ltilde[blk(i, i)] = net.delta_tilde_block(i)
        for j in net.neighbors[i]:
            Ltilde[blk(i, j)] = -net.link(i, j).WtUinvW

    Delta = symmetrize(Delta)
    DeltaTilde = symmetrize(DeltaTilde)
    require_psd(Delta, "Delta")
    require_psd(DeltaTilde, "DeltaTilde")
    return GlobalMatrices(Delta=Delta, DeltaTilde=DeltaTilde, Ltilde=Ltilde)
