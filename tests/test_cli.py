import numpy as np
import pytest
import yaml

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
