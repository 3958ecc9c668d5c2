import copy

import numpy as np
import pytest

from menf import (
    NeighborLink,
    NodeModel,
    PlantModel,
    build_network,
    laplacian_P,
    simulate,
    tune_scalar,
)
from menf.scenario_io import bundled_chua_text, document_to_scenario, parse_document

# The paper's Chua plant and graph, which the bundled scenario must carry.
CHUA_A = np.array([[-3.2, 10.0, 0.0], [1.0, -1.0, 1.0], [0.0, -14.87, 0.0]])
CHUA_EDGES = ((1, 3), (2, 3), (3, 1), (3, 2), (3, 4), (4, 3), (4, 5), (5, 4))
CHUA_DOC = parse_document(bundled_chua_text(), source="chua.scenario")


def chua_scenario(seed, tuning, disturbances="pulse", amplitude=1.0, std=1.0):
    """The bundled Chua scenario run with `seed` and the tuned M^-1, its
    disturbance on every channel being the bundled one-second pulse scaled
    to `amplitude`, held-gaussian noise N(0, std^2) held 0.1 s, or zero."""
    doc = copy.deepcopy(CHUA_DOC)
    doc["sim"]["seed"] = seed
    if disturbances == "zero":
        doc["disturbances"] = []
    for spec in doc["disturbances"]:
        if disturbances == "pulse":
            spec["amplitude"] = amplitude
        else:
            where = {k: spec[k] for k in ("target", "node", "edge") if k in spec}
            spec.clear()
            spec.update(kind="held_gaussian", mean=0.0, std=std, hold=0.1, **where)
    return document_to_scenario(
        doc, m_inv_blocks=tuning.m_inv_blocks, minv_margin=tuning.minv_margin
    )


@pytest.fixture(scope="session")
def chua_net():
    return document_to_scenario(CHUA_DOC).network


@pytest.fixture(scope="session")
def chua_P(chua_net):
    return laplacian_P(chua_net, np.eye(3), ridge=0.01)


@pytest.fixture(scope="session")
def chua_tuning(chua_net, chua_P):
    return tune_scalar(chua_net, chua_P)


@pytest.fixture(scope="session")
def chua_run(chua_tuning):
    """Seed-0 pulse run of the built-in scenario, shared across modules."""
    scenario = chua_scenario(0, chua_tuning)
    return scenario, simulate(scenario)


def make_single_node_network(a=-1.0, b=1.0, c=1.0, d=1.0, xcal=1.0):
    """One-node, no-edge network with scalar state."""
    plant = PlantModel(A=np.array([[a]]), B=np.array([[b]]))
    node = NodeModel(
        C=np.array([[c]]),
        D=np.array([[d]]),
        xi=np.zeros(1),
        Xcal=np.array([[xcal]]),
        links={},
    )
    return build_network(plant, [node], [])


def make_two_node_network(n=2, seed=0):
    """Two nodes, single edge (1, 2), random well-conditioned matrices."""
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n)) * 0.3 - np.eye(n)
    B = rng.standard_normal((n, n)) * 0.5
    plant = PlantModel(A=A, B=B)
    link = NeighborLink(
        W=np.eye(n) + 0.1 * rng.standard_normal((n, n)),
        F=np.eye(n) * 0.5,
        Z=np.eye(n) * 0.2,
    )
    nodes = [
        NodeModel(
            C=rng.standard_normal((1, n)),
            D=np.array([[0.5]]),
            xi=rng.standard_normal(n),
            Xcal=np.eye(n) * 2.0,
            links={2: link},
        ),
        NodeModel(
            C=rng.standard_normal((2, n)),
            D=np.eye(2) * 0.4,
            xi=rng.standard_normal(n),
            Xcal=np.eye(n),
            links={},
        ),
    ]
    return build_network(plant, nodes, [(1, 2)])
