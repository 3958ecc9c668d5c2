import numpy as np
import pytest

from menf import (
    DimensionMismatch,
    NeighborLink,
    NodeModel,
    NotPositiveDefinite,
    PlantModel,
    SelfLoop,
    assemble_global,
    build_network,
)
from menf.scenario_io import (
    document_to_network,
    dump_document,
    parse_document,
    scenario_to_document,
)
from menf.sim import Scenario, X0Law

from conftest import make_two_node_network


def test_chua_derived_link_matrices(chua_net):
    # F F' + W Z W' = 0.25 I + 0.1 I for every edge
    for (i, j) in chua_net.edges:
        link = chua_net.link(i, j)
        np.testing.assert_allclose(link.U, 0.35 * np.eye(3), rtol=0, atol=1e-15)
        np.testing.assert_allclose(link.S, 0.25 * np.eye(3), rtol=0, atol=1e-15)


def test_chua_topology(chua_net):
    assert chua_net.N == 5 and chua_net.n == 3
    assert len(chua_net.edges) == 8
    assert chua_net.neighbors[3] == (1, 2, 4)
    assert chua_net.neighbors[5] == (4,)


def test_self_loop_rejected():
    plant = PlantModel(A=-np.eye(2), B=np.eye(2))
    nodes = [
        NodeModel(C=np.eye(2), D=np.eye(2), xi=np.zeros(2), Xcal=np.eye(2), links={})
        for _ in range(2)
    ]
    with pytest.raises(SelfLoop) as exc:
        build_network(plant, nodes, [(2, 2)])
    assert exc.value.node_id == 2


def test_zero_d_rejected():
    with pytest.raises(NotPositiveDefinite) as exc:
        NodeModel(
            C=np.eye(2), D=np.zeros((2, 2)), xi=np.zeros(2), Xcal=np.eye(2), links={}
        )
    assert "R" in exc.value.name
    assert exc.value.min_eigenvalue == pytest.approx(0.0, abs=1e-15)


def test_dimension_checks():
    with pytest.raises(DimensionMismatch):
        PlantModel(A=np.zeros((2, 3)), B=np.zeros((2, 1)))
    with pytest.raises(DimensionMismatch):
        PlantModel(A=-np.eye(2), B=np.zeros((3, 1)))
    plant = PlantModel(A=-np.eye(2), B=np.eye(2))
    bad_c = NodeModel(
        C=np.ones((1, 3)), D=np.eye(1), xi=np.zeros(3), Xcal=np.eye(3), links={}
    )
    with pytest.raises(DimensionMismatch):
        build_network(plant, [bad_c], [])


def test_links_must_match_edges():
    plant = PlantModel(A=-np.eye(2), B=np.eye(2))
    link = NeighborLink(W=np.eye(2), F=np.eye(2), Z=np.eye(2))
    nodes = [
        NodeModel(C=np.eye(2), D=np.eye(2), xi=np.zeros(2), Xcal=np.eye(2), links={2: link}),
        NodeModel(C=np.eye(2), D=np.eye(2), xi=np.zeros(2), Xcal=np.eye(2), links={}),
    ]
    with pytest.raises(DimensionMismatch):
        build_network(plant, nodes, [])  # node 1 has a link but no edge


def test_assemble_global_no_edges_is_zero():
    plant = PlantModel(A=-np.eye(2), B=np.eye(2))
    node = NodeModel(C=np.eye(2), D=np.eye(2), xi=np.zeros(2), Xcal=np.eye(2), links={})
    net = build_network(plant, [node], [])
    gm = assemble_global(net)
    assert np.array_equal(gm.Delta, np.zeros((2, 2)))
    assert np.array_equal(gm.DeltaTilde, np.zeros((2, 2)))
    assert np.array_equal(gm.Ltilde, np.zeros((2, 2)))


def test_assemble_global_two_node_case_split():
    # edge (1,2) with W=I, U=uI, Z=zI: Delta block1 = I/u,
    # Ltilde block11 = z/u^2 I, block12 = -I/u, second block row zero.
    n, z = 2, 0.3
    f = 0.7
    u = f * f + z
    plant = PlantModel(A=-np.eye(n), B=np.eye(n))
    link = NeighborLink(W=np.eye(n), F=f * np.eye(n), Z=z * np.eye(n))
    nodes = [
        NodeModel(C=np.eye(n), D=np.eye(n), xi=np.zeros(n), Xcal=np.eye(n), links={2: link}),
        NodeModel(C=np.eye(n), D=np.eye(n), xi=np.zeros(n), Xcal=np.eye(n), links={}),
    ]
    net = build_network(plant, nodes, [(1, 2)])
    gm = assemble_global(net)
    eye = np.eye(n)
    np.testing.assert_allclose(gm.Delta[:n, :n], eye / u, atol=1e-14)
    np.testing.assert_allclose(gm.Ltilde[:n, :n], (z / u**2) * eye, atol=1e-14)
    np.testing.assert_allclose(gm.Ltilde[:n, n:], -eye / u, atol=1e-14)
    assert np.array_equal(gm.Ltilde[n:, :], np.zeros((n, 2 * n)))
    assert np.array_equal(gm.Delta[n:, n:], np.zeros((n, n)))


def test_chua_delta_tilde_blocks(chua_net):
    # per neighbor: (1/0.35) * 0.1 * (1/0.35) on the diagonal
    gm = assemble_global(chua_net)
    unit = 0.1 / 0.35**2
    for i in chua_net.node_ids():
        li = len(chua_net.neighbors[i])
        blk = gm.DeltaTilde[3 * (i - 1):3 * i, 3 * (i - 1):3 * i]
        np.testing.assert_allclose(blk, li * unit * np.eye(3), rtol=1e-13)


def test_delta_tilde_equals_ltilde_diagonal(chua_net):
    gm = assemble_global(chua_net)
    for i in chua_net.node_ids():
        sl = slice(3 * (i - 1), 3 * i)
        assert np.array_equal(gm.Ltilde[sl, sl], gm.DeltaTilde[sl, sl])


def test_global_symmetry(chua_net):
    gm = assemble_global(chua_net)
    assert np.array_equal(gm.Delta, gm.Delta.T)
    assert np.array_equal(gm.DeltaTilde, gm.DeltaTilde.T)


def test_network_roundtrip_bit_identical():
    net = make_two_node_network()
    scenario = Scenario(
        network=net,
        T=1.0,
        dt=0.01,
        seed=1,
        x0_law=X0Law(kind="fixed", value=np.zeros(net.n)),
        m_inv_blocks=tuple(0.1 * np.eye(net.n) for _ in range(net.N)),
    )
    doc = scenario_to_document(scenario)
    reparsed = parse_document(dump_document(doc))
    net2 = document_to_network(reparsed)
    assert np.array_equal(net2.plant.A, net.plant.A)
    assert np.array_equal(net2.plant.Q, net.plant.Q)
    assert net2.edges == net.edges
    for i in net.node_ids():
        assert np.array_equal(net2.node(i).R, net.node(i).R)
        assert np.array_equal(net2.node(i).CtRinvC, net.node(i).CtRinvC)
        for j in net.neighbors[i]:
            assert np.array_equal(net2.link(i, j).U, net.link(i, j).U)
            assert np.array_equal(net2.link(i, j).WtUinvW, net.link(i, j).WtUinvW)


def test_arrays_frozen(chua_net):
    with pytest.raises(ValueError):
        chua_net.plant.A[0, 0] = 1.0
    with pytest.raises(ValueError):
        chua_net.node(1).CtRinvC[0, 0] = 1.0
