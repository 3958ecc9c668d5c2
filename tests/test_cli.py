import contextlib
import io

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from menf import check_hinf, simulate
from menf.cli import _fmt, _write_csv, main
from menf.scenario_io import (
    bundled_chua_text,
    document_to_scenario,
    dump_document,
    load_document,
    load_tuned_m,
    parse_document,
    tuning_P_from_document,
)

SMALL = """
plant: {A: [[-1.0, 0.3], [0.0, -2.0]], B: [[0.5, 0.0], [0.0, 0.5]]}
nodes:
  - {C: [[1.0, 0.0]], D: [[0.5]], xi: [0.0, 0.0], Xcal: [[2.0, 0.0], [0.0, 2.0]]}
  - {C: [[0.0, 1.0]], D: [[0.5]], xi: [0.1, -0.1], Xcal: [[2.0, 0.0], [0.0, 2.0]]}
edges: [[1, 2], [2, 1]]
links:
  defaults:
    W: [[1.0, 0.0], [0.0, 1.0]]
    F: [[0.5, 0.0], [0.0, 0.5]]
    Z: [[0.2, 0.0], [0.0, 0.2]]
sim:
  T: 2.0
  dt: 0.001
  seed: 3
  x0_law: {kind: gaussian, mean: 0.1, std: 0.2}
disturbances:
  - {kind: pulse, target: w, amplitude: 1.0, start: 0.0, duration: 0.5}
tuning: {P0: [[1.0, 0.0], [0.0, 1.0]], ridge: 0.01}
"""


# SMALL with held noise on every channel, summed with pulses on w, v_1 and
# eps_12.
HELD_AND_PULSE = SMALL.replace(
    "  - {kind: pulse, target: w, amplitude: 1.0, start: 0.0, duration: 0.5}\n",
    """  - {kind: pulse, target: w, amplitude: 1.0, start: 0.0, duration: 0.5}
  - {kind: held_gaussian, target: w, std: 0.5, hold: 0.05}
  - {kind: held_gaussian, target: v, node: 1, std: 0.3, hold: 0.1}
  - {kind: pulse, target: v, node: 1, amplitude: 0.8, start: 0.3, duration: 0.4}
  - {kind: held_gaussian, target: v, node: 2, std: 0.3, hold: 0.1}
  - {kind: pulse, target: eps, edge: [1, 2], amplitude: 1.0, start: 0.1, duration: 0.4}
  - {kind: held_gaussian, target: eps, edge: [1, 2], std: 0.2, hold: 0.1}
  - {kind: held_gaussian, target: eps, edge: [2, 1], std: 0.2, hold: 0.1}
""",
)


def write_small(tmp_path, text=SMALL):
    path = tmp_path / "small.scenario"
    path.write_text(text, encoding="utf-8")
    return path


def tune_and_simulate(tmp_path, text=SMALL):
    scen = write_small(tmp_path, text)
    tuned = tmp_path / "tuned.yaml"
    assert main(["tune", str(scen), "--out", str(tuned)]) == 0
    out = tmp_path / "run"
    assert main(["simulate", str(scen), "--out", str(out), "--tuned", str(tuned)]) == 0
    return scen, tuned, out


def test_tune_simulate_verify_roundtrip(tmp_path, capsys):
    scen = write_small(tmp_path)
    tuned = tmp_path / "tuned.yaml"
    assert main(["tune", str(scen), "--out", str(tuned)]) == 0
    assert tuned.exists()
    out = tmp_path / "run"
    assert main([
        "simulate", str(scen), "--out", str(out), "--tuned", str(tuned)
    ]) == 0
    assert (out / "manifest.yaml").exists()
    assert (out / "state.csv").exists()
    assert main(["verify", str(out)]) == 0
    report = yaml.safe_load((out / "hinf_report.json").read_text())
    assert report["slack"] >= 0
    assert (out / "hinf_report.txt").exists()


def test_simulate_deterministic_bytes(tmp_path):
    scen = write_small(tmp_path)
    tuned = tmp_path / "tuned.yaml"
    assert main(["tune", str(scen), "--out", str(tuned)]) == 0
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main([
            "simulate", str(scen), "--out", str(out), "--seed", "11",
            "--tuned", str(tuned),
        ]) == 0
    for name in ("state.csv", "estimates_node1.csv", "gains_node2.csv", "disturbance_w.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_dt_override_changes_hash(tmp_path):
    scen = write_small(tmp_path)
    tuned = tmp_path / "tuned.yaml"
    main(["tune", str(scen), "--out", str(tuned)])
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    main(["simulate", str(scen), "--out", str(out1), "--tuned", str(tuned)])
    main([
        "simulate", str(scen), "--out", str(out2), "--dt", "0.002", "--tuned", str(tuned)
    ])
    h1 = yaml.safe_load((out1 / "manifest.yaml").read_text())["scenario_sha256"]
    h2 = yaml.safe_load((out2 / "manifest.yaml").read_text())["scenario_sha256"]
    assert h1 != h2


def test_parse_error_exit_code(tmp_path):
    bad = tmp_path / "bad.scenario"
    bad.write_text("plant: {A: [[1.0], [2.0, 3.0]]}\n", encoding="utf-8")
    assert main(["tune", str(bad)]) == 1
    assert main(["simulate", str(bad), "--out", str(tmp_path / "x")]) == 1


def test_usage_error_exit_code():
    assert main(["simulate"]) == 1  # missing required arguments
    assert main(["no-such-command"]) == 1


def test_infeasible_exit_code(tmp_path):
    doc = parse_document(bundled_chua_text())
    doc["tuning"] = {"P0": (1e6 * np.eye(3)).tolist(), "ridge": 0.01}
    scen = tmp_path / "hard.scenario"
    scen.write_text(dump_document(doc), encoding="utf-8")
    assert main(["tune", str(scen), "--out", str(tmp_path / "t.yaml")]) == 2


def test_missing_tuning_exit_code(tmp_path):
    scen = write_small(tmp_path)
    assert main(["simulate", str(scen), "--out", str(tmp_path / "y")]) == 1


def test_corrupted_estimates_fail_verification(tmp_path):
    scen = write_small(tmp_path)
    tuned = tmp_path / "tuned.yaml"
    main(["tune", str(scen), "--out", str(tuned)])
    out = tmp_path / "run"
    main(["simulate", str(scen), "--out", str(out), "--tuned", str(tuned)])
    # blow up one estimate column (x100): the recomputed error explodes
    path = out / "estimates_node1.csv"
    lines = path.read_text().splitlines()
    fixed = [lines[0]]
    for line in lines[1:]:
        cols = line.split(",")
        cols[1] = format(float(cols[1]) * 100.0 + 50.0, ".17g")
        fixed.append(",".join(cols))
    path.write_text("\n".join(fixed) + "\n", encoding="utf-8")
    assert main(["verify", str(out)]) == 4


def test_corrupt_csv_rejected(tmp_path):
    scen = write_small(tmp_path)
    tuned = tmp_path / "tuned.yaml"
    main(["tune", str(scen), "--out", str(tuned)])
    out = tmp_path / "run"
    main(["simulate", str(scen), "--out", str(out), "--tuned", str(tuned)])
    path = out / "state.csv"
    lines = path.read_text().splitlines()
    lines[5] = lines[5].rsplit(",", 1)[0] + ",not_a_number"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert main(["verify", str(out)]) == 1


def test_verify_p_file_and_dimension_check(tmp_path, capsys):
    scen = write_small(tmp_path)
    tuned = tmp_path / "tuned.yaml"
    main(["tune", str(scen), "--out", str(tuned)])
    out = tmp_path / "run"
    main(["simulate", str(scen), "--out", str(out), "--tuned", str(tuned)])
    good = tmp_path / "P_good.yaml"
    good.write_text(yaml.safe_dump({"P": np.eye(4).tolist()}), encoding="utf-8")
    assert main(["verify", str(out), "--P", str(good)]) == 0
    bad = tmp_path / "P_bad.yaml"
    bad.write_text(yaml.safe_dump({"P": np.eye(3).tolist()}), encoding="utf-8")
    assert main(["verify", str(out), "--P", str(bad)]) == 1
    capsys.readouterr()
    # malformed YAML, then a non-numeric entry: exit 1 naming the file
    for name, text, where in [
        ("unclosed.yaml", "P: [[1.0\n", "unclosed.yaml:"),
        ("text_entry.yaml", 'P: [[1.0, "a"]]\n', "text_entry.yaml: P[0]"),
    ]:
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        assert main(["verify", str(out), "--P", str(path)]) == 1
        assert where in capsys.readouterr().err


def test_reproduce_chua_single_seed(tmp_path):
    out = tmp_path / "repro"
    assert main(["reproduce-chua", "--out", str(out), "--seeds", "1"]) == 0
    summary = (out / "summary.csv").read_text().splitlines()
    assert len(summary) == 2  # header + one row
    assert (out / "chua.scenario").exists()
    assert (out / "tuned.yaml").exists()
    assert (out / "seed_0" / "errors_first_coord.csv").exists()
    row = summary[1].split(",")
    header = summary[0].split(",")
    converged = row[header.index("converged")]
    assert converged == "1"
    ratio = float(row[header.index("isolation_ratio")])
    assert ratio >= 10.0


def test_output_dir_not_writable(tmp_path):
    scen = write_small(tmp_path)
    tuned = tmp_path / "tuned.yaml"
    main(["tune", str(scen), "--out", str(tuned)])
    blocked = tmp_path / "blocked"
    blocked.write_text("a file, not a directory", encoding="utf-8")
    code = main([
        "simulate", str(scen), "--out", str(blocked), "--tuned", str(tuned)
    ])
    assert code == 1


def test_csv_writer_bytes_match_per_cell_format(tmp_path):
    columns = [
        np.array([0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300]),
        np.array([0.1, 1.0 / 3.0, -2.5, 123456789.123456789, 1e-300, 7.0]),
    ]
    path = tmp_path / "table.csv"
    _write_csv(path, ["a", "b"], columns)
    rows = [",".join(_fmt(col[r]) for col in columns) for r in range(6)]
    assert path.read_bytes() == ("a,b\n" + "".join(r + "\n" for r in rows)).encode()


def test_verify_from_disk_equals_in_memory_report(tmp_path):
    scen, tuned, out = tune_and_simulate(tmp_path, HELD_AND_PULSE)
    assert main(["verify", str(out)]) == 0
    disk = yaml.safe_load((out / "hinf_report.json").read_text())

    doc = load_document(str(scen))
    m_inv, margin = load_tuned_m(tuned)
    scenario = document_to_scenario(doc, m_inv_blocks=m_inv, minv_margin=margin)
    P = tuning_P_from_document(doc, scenario.network)
    memory = check_hinf(scenario, simulate(scenario), P)
    pairs = [
        (disk["lhs"], memory.lhs),
        (disk["rhs"], memory.rhs),
        (disk["slack"], memory.slack),
    ] + [(disk["budget"][k], getattr(memory.breakdown, k)) for k in disk["budget"]]
    for a, b in pairs:
        assert abs(a - b) <= 1e-12 * max(abs(b), 1e-300)


def test_verify_rejects_samples_not_matching_the_manifest(tmp_path, capsys):
    _, _, out = tune_and_simulate(tmp_path)
    path = out / "disturbance_w.csv"
    lines = path.read_text().splitlines()
    cols = lines[10].split(",")
    cols[1] = format(float(cols[1]) + 1e-9, ".17g")
    lines[10] = ",".join(cols)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert main(["verify", str(out)]) == 1
    assert "disturbance_w.csv" in capsys.readouterr().err


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda line: line.rsplit(",", 1)[0] + ",",  # empty field
        lambda line: line.rsplit(",", 1)[0],  # short row
        None,  # every row short: a narrow table
    ],
    ids=["empty-field", "short-row", "narrow-table"],
)
def test_malformed_csv_rows_rejected(tmp_path, capsys, corrupt):
    _, _, out = tune_and_simulate(tmp_path)
    path = out / "estimates_node2.csv"
    lines = path.read_text().splitlines()
    if corrupt is None:
        lines = [line.rsplit(",", 1)[0] for line in lines]
    else:
        lines[7] = corrupt(lines[7])
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert main(["verify", str(out)]) == 1
    err = capsys.readouterr().err
    assert "estimates_node2.csv" in err
    assert "Traceback" not in err


def test_verify_rejects_bad_embedded_scenario_with_key_path(tmp_path, capsys):
    _, _, out = tune_and_simulate(tmp_path)
    path = out / "manifest.yaml"
    manifest = yaml.safe_load(path.read_text())
    manifest["scenario"]["plant"]["A"][1] = [0.0]
    path.write_text(dump_document(manifest), encoding="utf-8")
    assert main(["verify", str(out)]) == 1
    assert "plant.A" in capsys.readouterr().err


def test_reproduce_chua_seed_matches_simulate(tmp_path):
    repro = tmp_path / "repro"
    assert main(["reproduce-chua", "--out", str(repro), "--seeds", "2"]) == 0
    single = tmp_path / "single"
    assert main([
        "simulate", str(repro / "chua.scenario"), "--out", str(single), "--seed", "1",
        "--tuned", str(repro / "tuned.yaml"),
    ]) == 0
    names = sorted(p.name for p in single.glob("*.csv"))
    assert len(names) == 30
    for name in names:
        assert (repro / "seed_1" / name).read_bytes() == (single / name).read_bytes(), name


ONE_NODE = """
plant: {A: [[-1.0]], B: [[1.0]]}
nodes:
  - {C: [[1.0]], D: [[0.5]], xi: [0.0], Xcal: [[1.0]]}
edges: []
sim:
  T: 0.01
  dt: 0.001
  seed: 0
  x0_law: {kind: gaussian, mean: 0.0, std: 1.0, seed: 1}
disturbances:
  - {kind: pulse, target: w, amplitude: 1.0, start: 0.0, duration: 0.005}
  - {kind: held_gaussian, target: v, node: 1, mean: 0.0, std: 0.1, hold: 0.002, seed: 2}
tuning: {M_inv: [[[0.01]]]}
"""
LINKS = "links: {defaults: {W: [[1.0]], F: [[0.5]], Z: [[0.1]]}}"
TUNE_P0 = "{P0: [[1.0]], ridge: 0.01}"


@pytest.mark.parametrize(
    "old, new, args, where",
    [
        pytest.param("dt: 0.001", "dt: .nan", [], "sim.dt", id="dt-nan"),
        pytest.param("T: 0.01", "T: .inf", [], "sim.T", id="T-inf"),
        pytest.param("A: [[-1.0]]", "A: [[.inf]]", [], "plant.A", id="A-inf"),
        pytest.param("seed: 0", "seed: -3", [], "sim.seed", id="seed-negative"),
        pytest.param("std: 1.0,", "std: -1.0,", [], "sim.x0_law.std", id="x0-std-negative"),
        pytest.param("seed: 1}", "seed: -1}", [], "sim.x0_law.seed", id="x0-seed-negative"),
        pytest.param(
            "amplitude: 1.0", "amplitude: foo", [], "disturbances[0].amplitude",
            id="amplitude-text",
        ),
        pytest.param("start: 0.0", "start: soon", [], "disturbances[0].start", id="start-text"),
        pytest.param(
            "duration: 0.005", "duration: -0.05", [], "disturbances[0].duration",
            id="duration-negative",
        ),
        pytest.param("node: 1", "node: one", [], "disturbances[1].node", id="node-text"),
        pytest.param(
            "mean: 0.0, std: 0.1", "mean: x, std: 0.1", [], "disturbances[1].mean",
            id="mean-text",
        ),
        pytest.param("std: 0.1", "std: -0.1", [], "disturbances[1].std", id="held-std-negative"),
        pytest.param("hold: 0.002", "hold: 0", [], "disturbances[1].hold", id="hold-zero"),
        pytest.param("seed: 2}", "seed: -2}", [], "disturbances[1].seed", id="noise-seed-negative"),
        pytest.param("[[[0.01]]]", "[[[0.01]], [[0.01]]]", [], "M_inv", id="M_inv-extra-block"),
        pytest.param(
            "[[[0.01]]]", "[[[0.01, 0.0], [0.0, 0.01]]]", [], "M_inv", id="M_inv-block-shape"
        ),
        pytest.param("{M_inv: [[[0.01]]]}", "{M: [[[0.0]]]}", [], "tuning.M", id="M-singular"),
        pytest.param(
            "tuning:", "gains: {K0: [[[1.0]], [[1.0]]]}\ntuning:", [], "K0", id="K0-extra-block"
        ),
        pytest.param(None, None, ["--dt", "nan"], "sim.dt", id="dt-override-nan"),
        pytest.param(None, None, ["--seed", "-1"], "sim.seed", id="seed-override-negative"),
        pytest.param(
            None, None, ["--tuned", "tuned: {minv_margin: 0.5}\n"], "tuned.yaml",
            id="tuned-without-M_inv",
        ),
        pytest.param(
            None, None, ["--tuned", "tuned: {M_inv: [], minv_margin: 0.5}\n"], "tuned.yaml",
            id="tuned-empty-M_inv",
        ),
        pytest.param(
            None, None, ["manifest.yaml", lambda text: "scenario: [[1\n"], "manifest.yaml:",
            id="manifest-malformed",
        ),
        pytest.param(
            None, None, ["manifest.yaml", lambda text: text.replace("m_inv:", "M:")],
            "manifest.yaml", id="manifest-without-m_inv",
        ),
        pytest.param(
            None, None,
            ["manifest.yaml", lambda text: text.replace("gains_positive_definite", "gains_pd")],
            "manifest.yaml: hypotheses", id="manifest-unknown-hypothesis",
        ),
        # Rules on what the values mean, checked where the model objects
        # are built: simulate and tune both build the whole scenario.
        *[
            pytest.param(old, new, args, where, id=f"{name}-{args[0] if args else 'simulate'}")
            for old, new, where, name in [
                ("T: 0.01", "T: 0.0105", "sim", "T-off-grid"),
                ("node: 1", "node: 7", "disturbances[1]", "node-unknown"),
                ("hold: 0.002", "hold: 0.0004", "disturbances[1]", "hold-below-dt"),
                (
                    "{kind: gaussian, mean: 0.0, std: 1.0, seed: 1}",
                    "{kind: fixed, value: [0.0, 1.0]}", "sim.x0_law", "x0-length",
                ),
                ("amplitude: 1.0", "amplitude: [1.0, 2.0]", "disturbances[0]", "amplitude-length"),
                ("tuning:", "gains: {K0: [[[-1.0]]]}\ntuning:", "gains.K0", "K0-negative"),
            ]
            for args in ([], ["tune"])
        ],
        pytest.param("C: [[1.0]]", "C: [[1.0, 2.0]]", [], "nodes[1].C", id="C-width"),
        pytest.param("D: [[0.5]]", "D: [[0.0]]", [], "nodes[1]", id="D-singular"),
        pytest.param("Xcal: [[1.0]]", "Xcal: [[-1.0]]", [], "nodes[1]", id="Xcal-negative"),
        pytest.param("B: [[1.0]]", "B: [[1.0], [2.0]]", [], "plant", id="B-rows"),
        pytest.param("A: [[-1.0]]", "A: [[-1.0, 0.0]]", [], "plant", id="A-not-square"),
        pytest.param("[[[0.01]]]", "[[[-0.01]]]", [], "tuning.M_inv", id="M_inv-negative"),
        pytest.param(
            "edges: []", "edges: [[1, 1]]\n" + LINKS, [], "edges", id="edge-self-loop"
        ),
        pytest.param(
            "edges: []", "edges: [[1, 2]]\n" + LINKS, [], "edges", id="edge-unknown-node"
        ),
        pytest.param(
            "edges: []", "edges: []\nlinks: {overrides: [{edge: [1, 2], W: [[1.0]]}]}", [],
            "links.overrides[0].edge", id="override-unknown-edge",
        ),
        pytest.param(
            "{M_inv: [[[0.01]]]}", "{P0: [[1.0]], ridge: -1.0}", ["tune"], "tuning.P0",
            id="ridge-negative-tune",
        ),
        pytest.param(
            "{M_inv: [[[0.01]]]}", "{P0: [[1.0, 0.0], [0.0, 1.0]]}", ["tune"], "tuning.P0",
            id="P0-size-tune",
        ),
    ],
)
def test_malformed_input_exits_1_naming_the_key(tmp_path, capsys, old, new, args, where):
    """Every malformed input exits 1 naming its key path or file, with no
    traceback, before it reaches the integrator."""
    text = ONE_NODE if old is None else ONE_NODE.replace(old, new, 1)
    assert text != ONE_NODE or old is None
    scen = write_small(tmp_path, text)
    out = tmp_path / "run"
    if args and args[0] == "--tuned":
        (tmp_path / "tuned.yaml").write_text(args[1], encoding="utf-8")
        args = ["--tuned", str(tmp_path / "tuned.yaml")]
    if args and args[0] == "manifest.yaml":
        assert main(["simulate", str(scen), "--out", str(out)]) == 0
        manifest = out / "manifest.yaml"
        manifest.write_text(args[1](manifest.read_text(encoding="utf-8")), encoding="utf-8")
        argv = ["verify", str(out)]
    elif args == ["tune"]:
        scen = write_small(tmp_path, text.replace("{M_inv: [[[0.01]]]}", TUNE_P0))
        argv = ["tune", str(scen), "--out", str(tmp_path / "tuned.yaml")]
    else:
        argv = ["simulate", str(scen), "--out", str(out), *args]
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert where in err
    assert "Traceback" not in err


def _numeric_leaves(node, path=()):
    """Key paths of the numbers in a loaded document."""
    if isinstance(node, (dict, list)):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, value in items:
            yield from _numeric_leaves(value, path + (key,))
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        yield path


# The numbers of ONE_NODE that no negative value can fill.
_NON_NEGATIVE = {
    ("sim", "T"), ("sim", "dt"), ("sim", "seed"), ("sim", "x0_law", "std"),
    ("sim", "x0_law", "seed"), ("disturbances", 0, "duration"), ("disturbances", 1, "node"),
    ("disturbances", 1, "std"), ("disturbances", 1, "hold"), ("disturbances", 1, "seed"),
    ("nodes", 0, "Xcal", 0, 0), ("tuning", "M_inv", 0, 0, 0),
}
_EDITS = {
    "text": lambda v: "x",
    "nan": lambda v: float("nan"),
    "negative": lambda v: -(abs(v) + 1),
    "wrong-length list": lambda v: [v, v],
}
_LEAF_EDITS = [
    (path, edit)
    for path in _numeric_leaves(yaml.safe_load(ONE_NODE))
    for edit in _EDITS
    if edit != "negative" or path in _NON_NEGATIVE
]


@settings(max_examples=60, deadline=None)
@given(case=st.sampled_from(_LEAF_EDITS))
def test_single_leaf_edit_exits_1_naming_its_section(tmp_path_factory, case):
    """The exit-1 contract over single-number edits of a valid scenario:
    exit 1, the edited key's top-level section in the message, and no
    traceback."""
    path, edit = case
    doc = yaml.safe_load(ONE_NODE)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = _EDITS[edit](parent[path[-1]])
    tmp = tmp_path_factory.mktemp("fuzz")
    scen = write_small(tmp, yaml.safe_dump(doc))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["simulate", str(scen), "--out", str(tmp / "run")])
    assert code == 1, (path, edit)
    assert path[0] in err.getvalue(), (path, edit, err.getvalue())
    assert "Traceback" not in err.getvalue()
