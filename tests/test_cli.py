import contextlib
import copy
import io
import json
import shutil

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from menf import check_hinf, simulate, tune_scalar
from menf import cli
from menf.cli import _fmt, _format_column, _write_csv, main
from menf.scenario_io import (
    bundled_chua_text,
    document_to_scenario,
    dump_document,
    load_document,
    load_tuned_m,
    parse_document,
    tuning_P_from_document,
    tuning_result_to_document,
)
from menf.tuning import DECAY_FLOORS

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


def test_tune_prints_the_search_line(tmp_path, capsys):
    # the decay-floor rung and what the search cost are printed, and
    # tuned.yaml stays the document of the result's own fields
    scen = write_small(tmp_path)
    tuned = tmp_path / "tuned.yaml"
    capsys.readouterr()
    assert main(["tune", str(scen), "--out", str(tuned)]) == 0
    lines = capsys.readouterr().out.splitlines()
    doc = load_document(str(scen))
    net = document_to_scenario(doc).network
    result = tune_scalar(net, tuning_P_from_document(doc, net))
    rung = DECAY_FLOORS.index(result.decay_floor) + 1
    assert result.certificates_made > 0 and result.margins_evaluated > 0
    assert lines[4] == (
        f"search: decay floor {result.decay_floor:g} (rung {rung} of {len(DECAY_FLOORS)}), "
        f"{result.certificates_made} node certificates, "
        f"{result.margins_evaluated} stacked margins"
    )
    assert len(lines) == 5 + net.N
    assert tuned.read_text(encoding="utf-8") == dump_document(tuning_result_to_document(result))


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



def test_unstabilizable_plant_exit_code(tmp_path, capsys):
    # the unstable mode x1 is not reached by the disturbance
    scen = write_small(tmp_path, SMALL.replace(
        "plant: {A: [[-1.0, 0.3], [0.0, -2.0]], B: [[0.5, 0.0], [0.0, 0.5]]}",
        "plant: {A: [[1.0, 0.0], [0.0, -1.0]], B: [[0.0], [1.0]]}",
    ))
    assert main(["tune", str(scen), "--out", str(tmp_path / "t.yaml")]) == 3
    err = capsys.readouterr().err
    assert "numerical failure: (A, B) not stabilizable: mode 1+0j" in err
    assert "Traceback" not in err


# One unstable node whose M^-1 cancels C^T R^-1 C: its gain loses positive
# definiteness at t = 0.277. Flow style, as the CI smoke step writes it.
LOSES_POSITIVITY = (
    "{plant: {A: [[50.0]], B: [[1.0]]}, "
    "nodes: [{C: [[1.0]], D: [[1.0]], xi: [0.0], Xcal: [[1.0]]}], edges: [], "
    "sim: {T: 1.0, dt: 0.001, seed: 0, x0_law: {kind: fixed, value: [0.0]}}, "
    "tuning: {M_inv: [[[1.0]]]}}\n"
)


def test_failing_simulation_exits_3_without_output(tmp_path, capsys):
    scen = write_small(tmp_path, LOSES_POSITIVITY)
    out = tmp_path / "run"
    assert main(["simulate", str(scen), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "numerical failure: gain lost positive definiteness at t=0.277" in err
    assert "Traceback" not in err
    assert not out.exists()

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
    _write_csv(path, ["a", "b"], _format_column(columns[0]), np.column_stack(columns[1:]))
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


def test_text_and_json_reports_are_one_record_equal_to_the_in_memory_report(tmp_path):
    scen, tuned, out = tune_and_simulate(tmp_path, HELD_AND_PULSE)
    assert main(["verify", str(out)]) == 0
    text = (out / "hinf_report.json").read_text()
    record = json.loads(text)
    # hinf_report.txt: the JSON's entries in its key order, nested keys
    # joined by a dot, the same numbers and hypotheses.
    flat = []
    for key, value in record.items():
        if isinstance(value, dict):
            flat += [(f"{key}.{sub}", v) for sub, v in value.items()]
        else:
            flat.append((key, value))
    lines = [line.split(" = ") for line in (out / "hinf_report.txt").read_text().splitlines()]
    assert [key for key, _ in lines] == [key for key, _ in flat]
    for (key, got), (_, value) in zip(lines, flat):
        if key.startswith("hypotheses."):
            assert got == str(value)
        else:
            assert float(got) == value

    doc = load_document(str(scen))
    m_inv, margin = load_tuned_m(tuned)
    scenario = document_to_scenario(doc, m_inv_blocks=m_inv, minv_margin=margin)
    memory = check_hinf(scenario, simulate(scenario), tuning_P_from_document(doc, scenario.network))
    # The manifest stores the hypotheses sorted by key.
    memory.hypotheses = dict(sorted(memory.hypotheses.items()))
    assert text == json.dumps(memory.record(), indent=2) + "\n"


@pytest.mark.parametrize(
    "name, row",
    [
        ("state.csv", 6),
        ("estimates_node1.csv", 6),
        ("disturbance_w.csv", 6),
        ("estimates_node2.csv", None),  # the last row missing
    ],
)
def test_verify_rejects_a_table_off_the_manifest_grid(tmp_path, capsys, name, row):
    _, _, out = tune_and_simulate(tmp_path)
    path = out / name
    lines = path.read_text().splitlines()
    if row is None:
        del lines[-1]
    else:
        cols = lines[row].split(",")
        cols[0] = "123.0"  # the values of the row stay as they are
        lines[row] = ",".join(cols)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert main(["verify", str(out)]) == 1
    err = capsys.readouterr().err
    assert name in err and "time grid" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "name", ["disturbance_w.csv", "disturbance_v_node2.csv", "disturbance_eps_1_2.csv"]
)
def test_verify_rejects_samples_not_matching_the_manifest(tmp_path, capsys, name):
    _, _, out = tune_and_simulate(tmp_path)
    path = out / name
    lines = path.read_text().splitlines()
    cols = lines[10].split(",")
    cols[1] = format(float(cols[1]) + 1e-9, ".17g")
    lines[10] = ",".join(cols)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert main(["verify", str(out)]) == 1
    assert name in capsys.readouterr().err


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


@pytest.mark.parametrize("seeds", ["0", "-2", "two"])
def test_reproduce_chua_rejects_a_bad_seed_count(tmp_path, capsys, seeds):
    out = tmp_path / "repro"
    assert main(["reproduce-chua", "--out", str(out), "--seeds", seeds]) == 1
    assert "--seeds" in capsys.readouterr().err
    assert not out.exists()


def _tree(root):
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in root.rglob("*") if p.is_file()}


@pytest.fixture(scope="module")
def chua_two_seeds(tmp_path_factory):
    repro = tmp_path_factory.mktemp("repro") / "out"
    assert main(["reproduce-chua", "--out", str(repro), "--seeds", "2"]) == 0
    return repro


def test_reproduce_chua_seed_matches_simulate(chua_two_seeds, tmp_path):
    # seed_1 exports from the shared t text and seed_0's gain files; a
    # single run formats both itself.
    repro = chua_two_seeds
    single = tmp_path / "single"
    assert main([
        "simulate", str(repro / "chua.scenario"), "--out", str(single), "--seed", "1",
        "--tuned", str(repro / "tuned.yaml"),
    ]) == 0
    seed_1 = _tree(repro / "seed_1")
    assert seed_1.pop("errors_first_coord.csv")
    assert len(seed_1) == 31
    assert seed_1 == _tree(single)
    seed_0 = _tree(repro / "seed_0")
    gains = [name for name in seed_1 if name.startswith("gains_node")]
    assert len(gains) == 5
    for name in gains:
        assert seed_0[name] == seed_1[name], name


def test_reproduce_chua_seed_groups_write_the_same_tree(chua_two_seeds, tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "GROUP_BYTES", 1)  # one seed per group
    groups = []
    real = cli._reproduce_group

    def counted(*args):
        groups.append(list(args[-1]))
        return real(*args)

    monkeypatch.setattr(cli, "_reproduce_group", counted)
    repro = tmp_path / "repro"
    assert main(["reproduce-chua", "--out", str(repro), "--seeds", "2"]) == 0
    assert groups == [[0], [1]]
    assert _tree(repro) == _tree(chua_two_seeds)


def test_reproduce_chua_runs_ten_seeds_in_one_group():
    # Each group integrates the gains again, so the default round stays one pass.
    doc = parse_document(bundled_chua_text(), source="chua.scenario")
    assert cli._seeds_per_group(document_to_scenario(doc)) >= 10


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
            None, None, ["--tuned", "tuned: {M_inv: [[[-0.01]]], minv_margin: 0.1}\n"],
            "tuned.yaml: tuned.M_inv", id="tuned-M_inv-negative",
        ),
        pytest.param(
            None, None, ["manifest.yaml", lambda text: "scenario: [[1\n"], "manifest.yaml:",
            id="manifest-malformed",
        ),
        pytest.param(
            None, None, ["manifest.yaml", lambda text: text.replace("- - [0.01]", "- - [-0.01]")],
            "manifest.yaml: m_inv", id="manifest-m_inv-negative",
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
        *[
            pytest.param(
                None, None, ["manifest.yaml", lambda text, a=a, b=b: text.replace(a, b, 1)],
                f"manifest.yaml: {key}", id=f"manifest-{name}",
            )
            for a, b, key, name in [
                ("hypotheses: {", "hypotheses: {minv_margin: abc, ",
                 "hypotheses.minv_margin", "margin-text"),
                ("hypotheses: {", "hypotheses: {minv_margin: .nan, ",
                 "hypotheses.minv_margin", "margin-nan"),
                ("min_gain_eigenvalue: 1.0", "min_gain_eigenvalue: [1, 2]",
                 "hypotheses.min_gain_eigenvalue", "min-eigenvalue-list"),
                ("gains_positive_definite: true", "gains_positive_definite: 'no'",
                 "hypotheses.gains_positive_definite", "gains-flag-text"),
                ("\nseed: 0\n", "\nseed: 1\n", "seed", "seed-wrong"),
                ("scenario_sha256: ", "scenario_sha256: 0", "scenario_sha256", "hash-wrong"),
            ]
        ],
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
                ("tuning:", "gains: {K0: [[[0.0]]]}\ntuning:", "gains.K0", "K0-singular"),
                ("target: w,", "target: w, node: 1,", "disturbances[0]", "w-with-node"),
                ("node: 1,", "node: 1, edge: [1, 1],", "disturbances[1]", "v-with-edge"),
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


def _edit_leaf(doc, path, edit):
    """doc, with the number at its key path replaced by the edit of it."""
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = _EDITS[edit](parent[path[-1]])
    return doc


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
    tmp = tmp_path_factory.mktemp("fuzz")
    scen = write_small(tmp, yaml.safe_dump(_edit_leaf(yaml.safe_load(ONE_NODE), path, edit)))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["simulate", str(scen), "--out", str(tmp / "run")])
    assert code == 1, (path, edit)
    assert path[0] in err.getvalue(), (path, edit, err.getvalue())
    assert "Traceback" not in err.getvalue()


@pytest.fixture(scope="module")
def one_node_run(tmp_path_factory):
    """ONE_NODE simulated with a tuned file, so that its manifest records
    every hypothesis."""
    tmp = tmp_path_factory.mktemp("one_node")
    tuned = tmp / "tuned.yaml"
    tuned.write_text("tuned: {M_inv: [[[0.01]]], minv_margin: 0.5}\n", encoding="utf-8")
    out = tmp / "run"
    argv = ["simulate", str(write_small(tmp, ONE_NODE)), "--out", str(out), "--tuned", str(tuned)]
    assert main(argv) == 0
    return out


# The numbers of a manifest's seed, m_inv and hypotheses; only the margin
# and the minimum gain eigenvalue may be negative.
_MANIFEST_EDITS = [
    (path, edit)
    for path in (
        ("seed",), ("m_inv", 0, 0, 0),
        ("hypotheses", "minv_margin"), ("hypotheses", "min_gain_eigenvalue"),
    )
    for edit in _EDITS
    if edit != "negative" or path[0] != "hypotheses"
]


@settings(max_examples=30, deadline=None)
@given(case=st.sampled_from(_MANIFEST_EDITS))
def test_single_leaf_manifest_edit_exits_1_naming_its_key(one_node_run, tmp_path_factory, case):
    """The exit-1 contract over single-number edits of a run's manifest:
    verify exits 1 naming manifest.yaml and the edited key's section."""
    path, edit = case
    run = tmp_path_factory.mktemp("fuzz") / "run"
    shutil.copytree(one_node_run, run)
    manifest = yaml.safe_load((run / "manifest.yaml").read_text(encoding="utf-8"))
    (run / "manifest.yaml").write_text(
        yaml.safe_dump(_edit_leaf(manifest, path, edit)), encoding="utf-8"
    )
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(["verify", str(run)])
    assert code == 1, (path, edit)
    assert f"manifest.yaml: {path[0]}" in err.getvalue(), (path, edit, err.getvalue())
    assert "Traceback" not in err.getvalue()


@pytest.fixture(scope="module")
def small_tuned(tmp_path_factory):
    """SMALL and the tuned file `menf tune` writes for it, every optional key
    present."""
    tmp = tmp_path_factory.mktemp("small")
    scen, tuned = write_small(tmp), tmp / "tuned.yaml"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["tune", str(scen), "--out", str(tuned)]) == 0
    doc = yaml.safe_load(tuned.read_text(encoding="utf-8"))
    assert sorted(_numeric_leaves(doc)) == sorted(_SMALL_TUNED_LEAVES)
    return scen, doc


def _may_not_be_negative(path):
    """A diagonal entry of an M^-1 block, a mu_i or the decay floor: numbers
    of a tuned file that no negative value can fill."""
    if path[1] == "M_inv":
        return path[-1] == path[-2]
    return path[1] in ("mu_profile", "decay_floor")


def _drop(doc, path):
    """doc, without the key or list item at its key path."""
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    del parent[path[-1]]
    return doc


_SMALL_TUNED_LEAVES = [
    ("tuned", "M_inv", b, r, c) for b in range(2) for r in range(2) for c in range(2)
] + [
    ("tuned", key, i)
    for key in ("node_lmi_margins", "closed_loop_abscissas", "mu_profile")
    for i in range(2)
] + [("tuned", key) for key in ("minv_margin", "mu_lo_uniform", "decay_floor")]
# a block, a block's row, one entry of each per-node list, the whole section
_TUNED_DROPS = [
    ("tuned", "M_inv", 0), ("tuned", "M_inv", 0, 0), ("tuned", "node_lmi_margins", 0),
    ("tuned", "closed_loop_abscissas", 0), ("tuned", "mu_profile", 0), ("tuned",),
]
_TUNED_EDITS = [
    (path, edit)
    for path in _SMALL_TUNED_LEAVES
    for edit in _EDITS
    if edit != "negative" or _may_not_be_negative(path)
] + [(path, "drop") for path in _TUNED_DROPS]


@pytest.mark.parametrize(
    "path, edit", _TUNED_EDITS,
    ids=[".".join(map(str, path)) + f"-{edit}" for path, edit in _TUNED_EDITS],
)
def test_single_tuned_file_edit_exits_1_naming_tuned(small_tuned, tmp_path_factory, path, edit):
    """The exit-1 contract over every single edit of a tuned file, each of its
    numbers and its structure: simulate --tuned exits 1 naming the tuned
    section, with no traceback."""
    scen, tuned = small_tuned
    doc = copy.deepcopy(tuned)
    doc = _drop(doc, path) if edit == "drop" else _edit_leaf(doc, path, edit)
    tmp = tmp_path_factory.mktemp("fuzz")
    # paths without "tuned" in them, so that the message must name the key
    edited = tmp / "edited.yaml"
    edited.write_text(yaml.safe_dump(doc), encoding="utf-8")
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(["simulate", str(scen), "--out", str(tmp / "run"), "--tuned", str(edited)])
    message = err.getvalue()
    assert code == 1, (path, edit)
    assert str(edited) in message and "tuned" in message.replace(str(edited), ""), message
    assert "Traceback" not in message
