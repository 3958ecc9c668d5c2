import numpy as np
import pytest
import yaml

from menf import MissingTuning, ScenarioFormatError, simulate
from menf.scenario_io import (
    bundled_chua_text,
    document_hash,
    document_to_network,
    document_to_scenario,
    dump_document,
    load_tuned_m,
    parse_document,
    scenario_to_document,
    tuning_P_from_document,
    tuning_result_to_document,
)

from conftest import CHUA_A, CHUA_EDGES


MINIMAL = """
plant: {A: [[-1.0]], B: [[1.0]]}
nodes:
  - {C: [[1.0]], D: [[1.0]], xi: [0.0], Xcal: [[1.0]]}
edges: []
sim:
  T: 1.0
  dt: 0.001
  seed: 7
  x0_law: {kind: fixed, value: [0.25]}
tuning:
  M_inv: [[[0.1]]]
"""


def test_minimal_document_roundtrip():
    doc = parse_document(MINIMAL)
    scenario = document_to_scenario(doc)
    assert scenario.T == 1.0 and scenario.seed == 7
    doc2 = parse_document(dump_document(scenario_to_document(scenario)))
    scenario2 = document_to_scenario(doc2)
    assert np.array_equal(scenario2.network.plant.A, scenario.network.plant.A)
    assert np.array_equal(scenario2.m_inv_blocks[0], scenario.m_inv_blocks[0])
    assert scenario2.x0_law.value[0] == scenario.x0_law.value[0]


def test_unknown_keys_rejected():
    bad = MINIMAL.replace("tuning:", "tunning:")
    with pytest.raises(ScenarioFormatError) as exc:
        parse_document(bad)
    assert "tunning" in str(exc.value)
    bad2 = MINIMAL + "\n"
    doc = yaml.safe_load(bad2)
    doc["sim"]["unknown_flag"] = True
    with pytest.raises(ScenarioFormatError) as exc:
        parse_document(yaml.safe_dump(doc))
    assert "sim" in str(exc.value)


def test_malformed_matrix_rows_rejected():
    doc = yaml.safe_load(MINIMAL)
    doc["plant"]["A"] = [[1.0, 2.0], [3.0]]
    with pytest.raises(ScenarioFormatError) as exc:
        parse_document(yaml.safe_dump(doc))
    assert "row" in str(exc.value)


def test_yaml_error_carries_position():
    with pytest.raises(ScenarioFormatError) as exc:
        parse_document("plant: {A: [[1.0]\n", source="broken.yaml")
    assert "broken.yaml" in str(exc.value)


def test_float_roundtrip_exact():
    values = [0.1, 1e-3, -14.87, 0.025, 3.1923e-3, 1.0 / 3.0]
    dumped = yaml.safe_dump(values)
    assert yaml.safe_load(dumped) == values


def test_missing_tuning_raises():
    doc = yaml.safe_load(MINIMAL)
    del doc["tuning"]
    scenario = document_to_scenario(parse_document(yaml.safe_dump(doc)))
    assert scenario.m_inv_blocks is None
    with pytest.raises(MissingTuning):
        simulate(scenario)


def test_exactly_one_tuning_mode():
    doc = yaml.safe_load(MINIMAL)
    doc["tuning"] = {"P0": [[1.0]], "M_inv": [[[0.1]]]}
    with pytest.raises(ScenarioFormatError):
        parse_document(yaml.safe_dump(doc))
    doc["tuning"] = {"ridge": 0.1}
    with pytest.raises(ScenarioFormatError):
        parse_document(yaml.safe_dump(doc))


def test_edges_require_links_section():
    doc = yaml.safe_load(MINIMAL)
    doc["nodes"].append(dict(doc["nodes"][0]))
    doc["edges"] = [[1, 2]]
    with pytest.raises(ScenarioFormatError):
        parse_document(yaml.safe_dump(doc))
    doc["links"] = {"defaults": {"W": [[1.0]], "F": [[0.5]], "Z": [[0.2]]}}
    net = document_to_network(parse_document(yaml.safe_dump(doc)))
    assert net.neighbors[1] == (2,)
    # per-edge override wins over defaults
    doc["links"]["overrides"] = [{"edge": [1, 2], "Z": [[0.4]]}]
    net2 = document_to_network(parse_document(yaml.safe_dump(doc)))
    assert net2.link(1, 2).Z[0, 0] == 0.4
    assert net2.link(1, 2).F[0, 0] == 0.5


def test_bundled_chua_matches_builtin_network():
    doc = parse_document(bundled_chua_text(), source="chua.scenario")
    net = document_to_network(doc)
    # the paper's network: nodes 1 and 4 carry the nearly uninformative
    # sensor (C scaled by 0.001); every link has W = I, F = 0.5 I, Z = 0.1 I
    assert net.edges == tuple(sorted(CHUA_EDGES))
    assert np.array_equal(net.plant.A, CHUA_A)
    assert np.array_equal(net.plant.B, 0.4 * np.eye(3))
    weak = 0.001 * np.array([[3.1923, -4.6597, 1.0]])
    strong = np.array([[-0.8986, 0.1312, -1.9703]])
    for i in net.node_ids():
        assert np.array_equal(net.node(i).C, weak if i in (1, 4) else strong)
        assert np.array_equal(net.node(i).R, np.array([[0.025**2]]))
        assert np.array_equal(net.node(i).Xcal, 10.0 * np.eye(3))
        for j in net.neighbors[i]:
            link = net.link(i, j)
            assert np.array_equal(link.W, np.eye(3))
            assert np.array_equal(link.U, 0.25 * np.eye(3) + 0.1 * np.eye(3))
    P = tuning_P_from_document(doc, net)
    assert P.shape == (15, 15)
    sim = doc["sim"]
    assert sim["T"] == 10.0 and sim["dt"] == 0.001
    assert sim["x0_law"]["mean"] == 0.1 and sim["x0_law"]["std"] == 0.2
    assert len(doc["disturbances"]) == 1 + 5 + 8


def test_document_hash_tracks_content():
    doc = parse_document(MINIMAL)
    h1 = document_hash(doc)
    doc["sim"]["dt"] = 0.002
    assert document_hash(doc) != h1


def test_tuned_file_roundtrip(tmp_path, chua_tuning):
    path = tmp_path / "tuned.yaml"
    path.write_text(dump_document(tuning_result_to_document(chua_tuning)))
    blocks, margin = load_tuned_m(path)
    assert margin == pytest.approx(chua_tuning.minv_margin, rel=1e-12)
    for got, ref in zip(blocks, chua_tuning.m_inv_blocks):
        assert np.array_equal(got, ref)


def test_load_tuned_m_rejects_wrong_shape(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("something: else\n")
    with pytest.raises(ScenarioFormatError):
        load_tuned_m(path)
