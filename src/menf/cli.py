"""Command-line front end: tune, simulate, verify, reproduce-chua.

Exit status contract: 0 success, 1 usage/parse/configuration, 2 infeasible
tuning, 3 numerical failure, 4 verification failure. All paths are relative
to the invocation directory; there is no environment-variable configuration.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import shutil
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .errors import (
    DimensionMismatch,
    Infeasible,
    LostPositivity,
    MenfError,
    MissingTuning,
    NonFinite,
    NoStabilizingSolution,
    NotPositiveDefinite,
    NotStabilizable,
    ScenarioFormatError,
    SelfLoop,
    SingularGain,
)
from .scenario_io import (
    _blocks,
    _check_mapping,
    _number,
    _safe_load,
    _seed,
    bundled_chua_text,
    document_hash,
    document_to_scenario,
    dump_document,
    load_document,
    load_tuned_m,
    parse_document,
    tuning_P_from_document,
    tuning_result_to_document,
    validate_document,
)
from .sim import (
    Trajectories,
    make_isolated_variant,
    realize_disturbances,
    simulate,
    simulate_runs,
)
from .tuning import DECAY_FLOORS, tune_scalar
from .verify import check_hinf

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
EXIT_NUMERICAL = 3
EXIT_VERIFY = 4

_USAGE_ERRORS = (
    ScenarioFormatError,
    MissingTuning,
    DimensionMismatch,
    SelfLoop,
    NotPositiveDefinite,
    FileNotFoundError,
    NotADirectoryError,
    PermissionError,
    IsADirectoryError,
)
_NUMERICAL_ERRORS = (
    LostPositivity,
    NonFinite,
    SingularGain,
    NoStabilizingSolution,
    NotStabilizable,
    ArithmeticError,
)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); the contract wants 1
        raise _UsageError(message)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


# Rows formatted per write: the text of one block is held at a time, never
# that of a whole table.
ROW_BLOCK = 1024


def _format_column(values: np.ndarray) -> list[str]:
    """The "%.17g" text of each value, the same bytes as _fmt."""
    return ["%.17g" % v for v in values.tolist()]


def _write_csv(path: Path, header: list[str], first: list[str], table: np.ndarray) -> None:
    """Header line, then one row per entry of `first`: that entry, the
    already formatted first cell (the t text, shared by every table of a
    grid), then that row of the 2-D `table`, each value "%.17g", the same
    bytes as _fmt per cell. Rows are formatted and written ROW_BLOCK at a
    time."""
    line = "%s" + ",%.17g" * table.shape[1] + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for a in range(0, len(first), ROW_BLOCK):
            b = a + ROW_BLOCK
            fh.write("".join(map(line.__mod__, zip(first[a:b], *table[a:b].T.tolist()))))


def _read_csv(path: Path, width: int) -> np.ndarray:
    """The numbers of an exported CSV: a t column and width - 1 values per row."""
    try:
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except ValueError as exc:
        raise ScenarioFormatError(f"not a numeric table: {exc}", str(path)) from exc
    if data.shape[1] != width:
        raise ScenarioFormatError(
            f"expected {width} columns, got {data.shape[1]}", str(path)
        )
    if not np.all(np.isfinite(data)):
        raise ScenarioFormatError("non-numeric or missing entries", str(path))
    return data


# ---------------------------------------------------------------------------
# tune
# ---------------------------------------------------------------------------

def _cmd_tune(args) -> int:
    doc = load_document(args.scenario)
    if not {"P", "P0"} & set(doc.get("tuning", {})):
        raise ScenarioFormatError(
            "`tune` needs a tuning section with P or P0", args.scenario
        )
    # The whole scenario, so that tune rejects what simulate rejects.
    net = document_to_scenario(doc).network
    P = tuning_P_from_document(doc, net)
    result = tune_scalar(net, P)
    out = Path(args.out)
    out.write_text(dump_document(tuning_result_to_document(result)), encoding="utf-8")
    print(f"tuned M written to {out}")
    print(f"stacked-condition margin: {result.minv_margin:.6g}")
    print(f"uniform-scalar lower bound mu_lo: {result.mu_lo_uniform:.6g}")
    print(f"per-node M^-1 levels: {[round(m, 6) for m in result.mu_profile]}")
    print(
        f"search: decay floor {result.decay_floor:g} "
        f"(rung {DECAY_FLOORS.index(result.decay_floor) + 1} of {len(DECAY_FLOORS)}), "
        f"{result.certificates_made} node certificates, "
        f"{result.margins_evaluated} stacked margins"
    )
    for cert in result.node_certificates:
        print(
            f"node {cert.node_id}: LMI margin {cert.lmi_margin:.3e}, "
            f"closed-loop abscissa {cert.are.closed_loop_spectral_abscissa:.4f}, "
            f"ARE residual {cert.are.residual:.3e}"
        )
    return EXIT_OK


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def _apply_overrides(doc: dict, args) -> dict:
    """The document with --seed/--dt applied, validated again."""
    if getattr(args, "seed", None) is not None:
        doc["sim"]["seed"] = int(args.seed)
    if getattr(args, "dt", None) is not None:
        doc["sim"]["dt"] = float(args.dt)
    return validate_document(doc, source=args.scenario)


class _ExportCache:
    """What the tables of one export share, kept so each text is formatted
    once: the t text of the current grid, found by identity (the runs of a
    simulate_runs batch share one t array), and every table written on that
    grid, keyed by its header, shape and a blake2b digest of its values.
    A table with the same key has the same bytes, so it is copied from the
    first file instead of formatted again: the runs of one gain variant
    share their gains, and seed-free signals such as pulses repeat across
    seeds and channels."""

    def __init__(self):
        self.t = self.t_text = None
        self.written = {}

    def write(self, path: Path, header: list[str], t: np.ndarray, table: np.ndarray) -> None:
        """_write_csv of the table after the t column, or a copy of the
        file that already holds the same table."""
        if t is not self.t:
            self.t, self.t_text, self.written = t, _format_column(t), {}
        digest = hashlib.blake2b(np.ascontiguousarray(table)).digest()
        key = (tuple(header), table.shape, digest)
        first = self.written.get(key)
        if first is None:
            _write_csv(path, header, self.t_text, table)
            self.written[key] = path
        else:
            shutil.copyfile(first, path)


def _columns(name: str, k: int) -> list[str]:
    return ["t"] + [f"{name}{c + 1}" for c in range(k)]


def _tables(net, traj: Trajectories):
    """The one list of a run's CSV tables, in export order: (file name,
    header, values), values being the (steps+1, k) table after the t
    column. Export writes every table; verify reads them back through this
    same list (_load_trajectories)."""
    n = net.n
    yield "state.csv", _columns("x", n), traj.x
    for i in net.node_ids():
        yield f"estimates_node{i}.csv", _columns("xhat", n), traj.xhat[i - 1]
        yield f"errors_node{i}.csv", _columns("e", n), traj.xhat[i - 1] - traj.x
        yield (
            f"gains_node{i}.csv",
            ["t"] + [f"K{r + 1}{c + 1}" for r in range(n) for c in range(n)],
            traj.K[i - 1].reshape(-1, n * n),
        )
    yield "disturbance_w.csv", _columns("w", net.plant.q), traj.w_samples
    for i in net.node_ids():
        yield f"disturbance_v_node{i}.csv", _columns("v", net.node(i).p), traj.v_samples[i]
    for (i, j) in net.edges:
        yield (
            f"disturbance_eps_{i}_{j}.csv",
            _columns("eps", net.link(i, j).m),
            traj.eps_samples[(i, j)],
        )


def _export_run(
    outdir: Path, doc: dict, scenario, traj: Trajectories, cache: _ExportCache
) -> str:
    """Write one run's CSV tables (_tables) and manifest.yaml into outdir;
    returns the scenario hash the manifest records.

    Every table goes through the cache, so a table that an earlier one
    repeats is copied instead of formatted again."""
    outdir.mkdir(parents=True, exist_ok=True)
    for name, header, table in _tables(scenario.network, traj):
        cache.write(outdir / name, header, traj.t, table)
    digest = document_hash(doc)
    manifest = {
        "scenario": doc,
        "scenario_sha256": digest,
        "seed": scenario.seed,
        "version": __version__,
        "m_inv": [np.asarray(b).tolist() for b in scenario.m_inv_blocks],
        "hypotheses": {
            k: (float(v) if isinstance(v, (int, float)) and not isinstance(v, bool) else v)
            for k, v in traj.hypotheses.items()
            if v is not None
        },
    }
    (outdir / "manifest.yaml").write_text(dump_document(manifest), encoding="utf-8")
    return digest


def _cmd_simulate(args) -> int:
    doc = _apply_overrides(load_document(args.scenario), args)
    # Without --tuned, document_to_scenario reads M or M_inv from the
    # document, and simulate raises MissingTuning when it has neither.
    if args.tuned:
        m_inv, margin = load_tuned_m(args.tuned)
        scenario = document_to_scenario(
            doc, m_inv, margin, m_inv_source=f"{args.tuned}: tuned.M_inv"
        )
    else:
        scenario = document_to_scenario(doc)
    traj = simulate(scenario)
    digest = _export_run(Path(args.out), doc, scenario, traj, _ExportCache())
    final_e = float(np.max(np.abs(traj.e[:, -1, :])))
    print(f"run complete: {len(traj.t) - 1} steps, final max |e| = {final_e:.6g}")
    print(f"outputs in {args.out} (scenario sha256 {digest[:16]}...)")
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

_MANIFEST_KEYS = ("scenario", "scenario_sha256", "seed", "version", "m_inv", "hypotheses")
_HYPOTHESIS_KEYS = ("minv_margin", "gains_positive_definite", "min_gain_eigenvalue")


def _load_manifest(traj_dir: Path):
    """The manifest of a run and the scenario it records, each field
    checked: exit 1 names the first bad one."""
    manifest_path = traj_dir / "manifest.yaml"
    if not manifest_path.exists():
        raise ScenarioFormatError("manifest.yaml not found", str(traj_dir))
    source = str(manifest_path)
    manifest = _safe_load(manifest_path.read_text(encoding="utf-8"), source)
    _check_mapping(manifest, _MANIFEST_KEYS, ("scenario", "m_inv"), source)
    _blocks(manifest["m_inv"], f"{source}: m_inv")
    where = f"{source}: hypotheses"
    hypotheses = _check_mapping(manifest.get("hypotheses", {}), _HYPOTHESIS_KEYS, (), where)
    for key in ("minv_margin", "min_gain_eigenvalue"):
        if key in hypotheses:
            _number(hypotheses[key], f"{where}.{key}")
    if not isinstance(hypotheses.get("gains_positive_definite", False), bool):
        raise ScenarioFormatError("expected true or false", f"{where}.gains_positive_definite")
    # Revalidate the embedded document before trusting it, then the
    # record of its seed and hash against it.
    doc = validate_document(manifest["scenario"], source=source)
    scenario = document_to_scenario(
        doc,
        m_inv_blocks=[np.array(b) for b in manifest["m_inv"]],
        m_inv_source=f"{source}: m_inv",
    )
    if _seed(manifest.get("seed", scenario.seed), f"{source}: seed") != scenario.seed:
        raise ScenarioFormatError(f"differs from sim.seed {scenario.seed}", f"{source}: seed")
    if "scenario_sha256" in manifest and manifest["scenario_sha256"] != document_hash(doc):
        raise ScenarioFormatError("differs from the scenario's hash", f"{source}: scenario_sha256")
    return manifest, scenario


def _load_trajectories(traj_dir: Path, scenario) -> Trajectories:
    """The run of traj_dir, read back through _tables on the manifest's
    scenario: every table read must lie on scenario.t_grid(). The state
    and estimate tables fill the run; each disturbance table must equal the
    samples realized from the manifest's scenario and seed (the 17-digit
    export round-trips exactly). The gains and errors tables are not read,
    so K stays zero."""
    net = scenario.network
    t = scenario.t_grid()
    traj = Trajectories(
        t=t,
        x=np.empty((len(t), net.n)),
        xhat=np.empty((net.N, len(t), net.n)),
        K=np.zeros((net.N, len(t), net.n, net.n)),
        realization=realize_disturbances(scenario),
        network=net,
    )
    for name, header, values in _tables(net, traj):
        if name.startswith(("gains_", "errors_")):
            continue
        path = traj_dir / name
        data = _read_csv(path, len(header))
        if not np.array_equal(data[:, 0], t):
            raise ScenarioFormatError("time grid differs from the manifest's scenario", str(path))
        if not name.startswith("disturbance_"):
            values[...] = data[:, 1:]
        elif not np.array_equal(data[:, 1:], values):
            raise ScenarioFormatError(
                "samples differ from the disturbances realized from the "
                "manifest's scenario and seed",
                str(path),
            )
    return traj


def _cmd_verify(args) -> int:
    traj_dir = Path(args.traj_dir)
    manifest, scenario = _load_manifest(traj_dir)
    doc = manifest["scenario"]
    traj = _load_trajectories(traj_dir, scenario)
    traj.hypotheses = dict(manifest.get("hypotheses", {}))
    P = tuning_P_from_document(
        doc, scenario.network, None if args.P == "laplacian" else args.P
    )
    report = check_hinf(scenario, traj, P)
    lines = report.lines()
    (traj_dir / "hinf_report.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    (traj_dir / "hinf_report.json").write_text(
        json.dumps(report.record(), indent=2) + "\n", encoding="utf-8"
    )
    for line in lines:
        print(line)
    if report.slack < 0:
        print("attenuation bound VIOLATED", file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


# ---------------------------------------------------------------------------
# reproduce-chua
# ---------------------------------------------------------------------------

# Byte budget of the run states one reproduce-chua group holds. A group is
# one simulate_runs pass, which integrates each gain variant once, then its
# export; Chua holds 2.9 MB per seed, so up to 11 seeds make one group.
GROUP_BYTES = 32 * 2**20


def _last_second(t: np.ndarray) -> np.ndarray:
    return t >= t[-1] - 1.0


def _export_seed(
    out: Path, doc: dict, P: np.ndarray, run, traj: Trajectories, cache: _ExportCache
) -> tuple:
    """Export one seed's run. Returns (seed, per-node max |e_1| and max
    |e|_inf over the last second, converged, H-infinity slack)."""
    N = run.network.N
    sdoc = json.loads(json.dumps(doc))  # deep copy
    sdoc["sim"]["seed"] = run.seed
    seed_dir = out / f"seed_{run.seed}"
    _export_run(seed_dir, sdoc, run, traj, cache)
    report = check_hinf(run, traj, P)

    window = _last_second(traj.t)
    e = traj.e
    first = [float(np.max(np.abs(e[i][window, 0]))) for i in range(N)]
    inf = [float(np.max(np.abs(e[i][window]))) for i in range(N)]
    converged = all(v <= 1e-2 for v in inf)
    cache.write(seed_dir / "errors_first_coord.csv", _columns("e1_node", N), traj.t, e[:, :, 0].T)
    return run.seed, first, inf, converged, report.slack


def _seeds_per_group(scenario) -> int:
    """As many seeds as GROUP_BYTES holds of the state arrays of their
    networked and isolated runs, at least one."""
    net = scenario.network
    seed_bytes = 2 * 8 * (scenario.steps + 1) * net.n * (net.N + 1)
    return max(1, GROUP_BYTES // seed_bytes)


def _reproduce_group(out: Path, doc: dict, P: np.ndarray, scenario, seeds) -> tuple:
    """Simulate and export one group of seeds. Returns the seeds' export
    records and the node-1 maxima of their isolated twins over the last
    second."""
    runs = [replace(scenario, seed=s) for s in seeds]
    isolated = make_isolated_variant(scenario, 1)
    # One pass: the networked runs, then the same seeds with node 1 isolated.
    trajs = simulate_runs(runs + [replace(isolated, seed=run.seed) for run in runs])
    window = _last_second(scenario.t_grid())
    iso_maxima = [
        float(np.max(np.abs(iso.e[0][window]))) for iso in trajs[len(runs):]
    ]
    # Every run is released once used, so that only one run's disturbance
    # samples are held at a time.
    del trajs[len(runs):]
    cache = _ExportCache()
    records = [_export_seed(out, doc, P, run, trajs.pop(0), cache) for run in runs]
    return records, iso_maxima


def _cmd_reproduce_chua(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    scenario_text = bundled_chua_text()
    (out / "chua.scenario").write_text(scenario_text, encoding="utf-8")
    doc = parse_document(scenario_text, source="chua.scenario")
    scenario = document_to_scenario(doc)
    net = scenario.network
    P = tuning_P_from_document(doc, net)
    result = tune_scalar(net, P)
    (out / "tuned.yaml").write_text(
        dump_document(tuning_result_to_document(result)), encoding="utf-8"
    )
    print(
        f"tuning: stacked margin {result.minv_margin:.4g}, "
        f"M^-1 levels {[round(m, 4) for m in result.mu_profile]}"
    )

    header = [
        "seed",
        *[f"max_e{i}_first_coord" for i in range(1, net.N + 1)],
        *[f"max_e{i}_inf" for i in range(1, net.N + 1)],
        "converged",
        "hinf_slack",
        "isolated_node1_max_inf",
        "isolation_ratio",
    ]
    scenario = replace(
        scenario, m_inv_blocks=result.m_inv_blocks, minv_margin=result.minv_margin
    )
    group = _seeds_per_group(scenario)
    records, iso_maxima = [], []
    for start in range(0, args.seeds, group):
        seeds = range(start, min(start + group, args.seeds))
        group_records, group_maxima = _reproduce_group(out, doc, P, scenario, seeds)
        records += group_records
        iso_maxima += group_maxima
    rows = []
    for (seed, first, inf, converged, slack), iso_max in zip(records, iso_maxima):
        ratio = iso_max / max(inf[0], 1e-300)
        rows.append([seed, *first, *inf, converged, slack, iso_max, ratio])
        print(
            f"seed {seed}: max|e|_inf[T-1,T] = {max(inf):.3e}, converged={converged}, "
            f"slack = {slack:.4g}, isolation ratio = {ratio:.3g}"
        )

    with open(out / "summary.csv", "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(
                ",".join(
                    str(int(v)) if isinstance(v, bool) else
                    (str(v) if isinstance(v, int) else _fmt(v))
                    for v in row
                )
                + "\n"
            )
    print(f"summary written to {out / 'summary.csv'}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _build_parser() -> _Parser:
    parser = _Parser(prog="menf", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tune", help="solve the weighting design for a scenario")
    p.add_argument("scenario")
    p.add_argument("--out", default="tuned_m.yaml")
    p.set_defaults(func=_cmd_tune)

    p = sub.add_parser("simulate", help="run a scenario and export CSV trajectories")
    p.add_argument("scenario")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--dt", type=float, default=None)
    p.add_argument("--tuned", default=None, help="tuned-M file from `menf tune`")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("verify", help="evaluate the attenuation bound on a run")
    p.add_argument("traj_dir")
    p.add_argument(
        "--P",
        default="laplacian",
        help="'laplacian': the P or P0/ridge of the scenario's tuning section, "
        "else laplacian_P(I, ridge=0.01) for a run tuned by M/M_inv or --tuned; "
        "or a YAML file {P: matrix}",
    )
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser(
        "reproduce-chua", help="full pipeline on the built-in five-node Chua experiment"
    )
    p.add_argument("--out", required=True)
    p.add_argument("--seeds", type=_positive_int, default=10)
    p.set_defaults(func=_cmd_reproduce_chua)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"menf: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except Infeasible as exc:
        print(f"menf: infeasible tuning: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except _NUMERICAL_ERRORS as exc:
        print(f"menf: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except _USAGE_ERRORS as exc:
        print(f"menf: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"menf: i/o error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MenfError as exc:
        print(f"menf: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
