"""Command-line front end: tune, simulate, verify, reproduce-chua.

Exit status contract: 0 success, 1 usage/parse/configuration, 2 infeasible
tuning, 3 numerical failure, 4 verification failure. All paths are relative
to the invocation directory; there is no environment-variable configuration.
"""

from __future__ import annotations

import argparse
import json
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
    _safe_load,
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
    simulate_seeds,
)
from .tuning import tune_scalar
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


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _write_csv(path: Path, header: list[str], columns: list[np.ndarray]) -> None:
    """Header line, then every row formatted by one "%.17g,..." template,
    the same bytes as _fmt per cell; rows are written one at a time."""
    table = np.column_stack(columns)
    line = ",".join(["%.17g"] * table.shape[1]) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in table:
            fh.write(line % tuple(row.tolist()))


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


def _export_run(outdir: Path, doc: dict, scenario, traj: Trajectories) -> None:
    outdir.mkdir(parents=True, exist_ok=True)
    net = scenario.network
    t = traj.t
    n = net.n
    e = traj.e
    _write_csv(
        outdir / "state.csv",
        ["t"] + [f"x{k + 1}" for k in range(n)],
        [t] + [traj.x[:, k] for k in range(n)],
    )
    for i in net.node_ids():
        _write_csv(
            outdir / f"estimates_node{i}.csv",
            ["t"] + [f"xhat{k + 1}" for k in range(n)],
            [t] + [traj.xhat[i - 1][:, k] for k in range(n)],
        )
        _write_csv(
            outdir / f"errors_node{i}.csv",
            ["t"] + [f"e{k + 1}" for k in range(n)],
            [t] + [e[i - 1][:, k] for k in range(n)],
        )
        _write_csv(
            outdir / f"gains_node{i}.csv",
            ["t"] + [f"K{r + 1}{c + 1}" for r in range(n) for c in range(n)],
            [t] + [traj.K[i - 1][:, r, c] for r in range(n) for c in range(n)],
        )
    _write_csv(
        outdir / "disturbance_w.csv",
        ["t"] + [f"w{k + 1}" for k in range(net.plant.q)],
        [t] + [traj.w_samples[:, k] for k in range(net.plant.q)],
    )
    for i in net.node_ids():
        p = net.node(i).p
        _write_csv(
            outdir / f"disturbance_v_node{i}.csv",
            ["t"] + [f"v{k + 1}" for k in range(p)],
            [t] + [traj.v_samples[i][:, k] for k in range(p)],
        )
    for (i, j) in net.edges:
        m = net.link(i, j).m
        _write_csv(
            outdir / f"disturbance_eps_{i}_{j}.csv",
            ["t"] + [f"eps{k + 1}" for k in range(m)],
            [t] + [traj.eps_samples[(i, j)][:, k] for k in range(m)],
        )
    manifest = {
        "scenario": doc,
        "scenario_sha256": document_hash(doc),
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


def _cmd_simulate(args) -> int:
    doc = _apply_overrides(load_document(args.scenario), args)
    # Without --tuned, document_to_scenario reads M or M_inv from the
    # document, and simulate raises MissingTuning when it has neither.
    m_inv, margin = load_tuned_m(args.tuned) if args.tuned else (None, None)
    scenario = document_to_scenario(doc, m_inv_blocks=m_inv, minv_margin=margin)
    traj = simulate(scenario)
    _export_run(Path(args.out), doc, scenario, traj)
    final_e = float(np.max(np.abs(traj.e[:, -1, :])))
    print(f"run complete: {len(traj.t) - 1} steps, final max |e| = {final_e:.6g}")
    print(f"outputs in {args.out} (scenario sha256 {document_hash(doc)[:16]}...)")
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

_MANIFEST_KEYS = ("scenario", "scenario_sha256", "seed", "version", "m_inv", "hypotheses")
_HYPOTHESIS_KEYS = ("minv_margin", "gains_positive_definite", "min_gain_eigenvalue")


def _load_manifest(traj_dir: Path) -> dict:
    manifest_path = traj_dir / "manifest.yaml"
    if not manifest_path.exists():
        raise ScenarioFormatError("manifest.yaml not found", str(traj_dir))
    source = str(manifest_path)
    manifest = _safe_load(manifest_path.read_text(encoding="utf-8"), source)
    _check_mapping(manifest, _MANIFEST_KEYS, ("scenario", "m_inv"), source)
    _blocks(manifest["m_inv"], f"{source}: m_inv")
    _check_mapping(manifest.get("hypotheses", {}), _HYPOTHESIS_KEYS, (), f"{source}: hypotheses")
    # Revalidate the embedded document before trusting it.
    validate_document(manifest["scenario"], source=source)
    return manifest


def _matching_samples(path: Path, cols: int, realized: np.ndarray) -> np.ndarray:
    """Grid samples of one disturbance CSV, which must equal the samples
    realized from the manifest's scenario and seed (the 17-digit export
    round-trips exactly)."""
    samples = _read_csv(path, 1 + cols)[:, 1:]
    if not np.array_equal(samples, realized):
        raise ScenarioFormatError(
            "samples differ from the disturbances realized from the manifest's "
            "scenario and seed",
            str(path),
        )
    return samples


def _load_trajectories(traj_dir: Path, scenario) -> Trajectories:
    net = scenario.network
    n = net.n
    state = _read_csv(traj_dir / "state.csv", 1 + n)
    t = state[:, 0]
    if not np.array_equal(t, scenario.t_grid()):
        raise ScenarioFormatError(
            "time grid differs from the manifest's scenario", str(traj_dir / "state.csv")
        )
    x = state[:, 1:]
    steps1 = len(t)
    xhat = np.empty((net.N, steps1, n))
    for i in net.node_ids():
        est = _read_csv(traj_dir / f"estimates_node{i}.csv", 1 + n)
        if est.shape[0] != steps1:
            raise ScenarioFormatError(
                f"estimates_node{i}.csv has {est.shape[0]} rows, expected {steps1}",
                str(traj_dir),
            )
        xhat[i - 1] = est[:, 1:]
    real = realize_disturbances(scenario)
    w_real, v_real, eps_real = real.evaluate(t, closed=True)
    w = _matching_samples(traj_dir / "disturbance_w.csv", net.plant.q, w_real)
    v = {
        i: _matching_samples(
            traj_dir / f"disturbance_v_node{i}.csv", net.node(i).p, v_real[i]
        )
        for i in net.node_ids()
    }
    eps = {
        (i, j): _matching_samples(
            traj_dir / f"disturbance_eps_{i}_{j}.csv", net.link(i, j).m, eps_real[(i, j)]
        )
        for (i, j) in net.edges
    }
    return Trajectories(
        t=t,
        x=x,
        xhat=xhat,
        K=np.zeros((net.N, steps1, n, n)),
        w_samples=w,
        v_samples=v,
        eps_samples=eps,
        realization=real,
        network=net,
        hypotheses={},
    )


def _cmd_verify(args) -> int:
    traj_dir = Path(args.traj_dir)
    manifest = _load_manifest(traj_dir)
    doc = manifest["scenario"]
    scenario = document_to_scenario(
        doc,
        m_inv_blocks=[np.array(b) for b in manifest["m_inv"]],
        minv_margin=manifest.get("hypotheses", {}).get("minv_margin"),
    )
    traj = _load_trajectories(traj_dir, scenario)
    traj.hypotheses = dict(manifest.get("hypotheses", {}))
    P = tuning_P_from_document(
        doc, scenario.network, None if args.P == "laplacian" else args.P
    )
    report = check_hinf(scenario, traj, P)
    lines = report.lines()
    (traj_dir / "hinf_report.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    (traj_dir / "hinf_report.json").write_text(
        json.dumps(
            {
                "lhs": report.lhs,
                "rhs": report.rhs,
                "slack": report.slack,
                "budget": {
                    "init": report.breakdown.init,
                    "model": report.breakdown.model,
                    "measurement": report.breakdown.measurement,
                    "communication": report.breakdown.communication,
                },
                "hypotheses": report.hypotheses,
            },
            indent=2,
        )
        + "\n",
        encoding="utf-8",
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

def _last_second(t: np.ndarray) -> np.ndarray:
    return t >= t[-1] - 1.0


def _export_seeds(out: Path, doc: dict, scenario, P: np.ndarray, seeds) -> list[tuple]:
    """Simulate the seeds in one batch and export every run. Returns per
    seed (seed, per-node max |e_1| and max |e|_inf over the last second,
    converged, H-infinity slack)."""
    N = scenario.network.N
    records = []
    for seed, traj in zip(seeds, simulate_seeds(scenario, seeds)):
        sdoc = json.loads(json.dumps(doc))  # deep copy
        sdoc["sim"]["seed"] = seed
        run = replace(scenario, seed=seed)
        seed_dir = out / f"seed_{seed}"
        _export_run(seed_dir, sdoc, run, traj)
        report = check_hinf(run, traj, P)

        window = _last_second(traj.t)
        e = traj.e
        first = [float(np.max(np.abs(e[i][window, 0]))) for i in range(N)]
        inf = [float(np.max(np.abs(e[i][window]))) for i in range(N)]
        converged = all(v <= 1e-2 for v in inf)
        _write_csv(
            seed_dir / "errors_first_coord.csv",
            ["t"] + [f"e1_node{i}" for i in range(1, N + 1)],
            [traj.t] + [e[i][:, 0] for i in range(N)],
        )
        records.append((seed, first, inf, converged, report.slack))
    return records


def _isolated_maxima(scenario, seeds) -> list[float]:
    """Node 1's max |e|_inf over the last second with its incoming links cut,
    for every seed, from one batch."""
    window = _last_second(scenario.t_grid())
    return [
        float(np.max(np.abs(iso.e[0][window])))
        for iso in simulate_seeds(make_isolated_variant(scenario, 1), seeds)
    ]


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
    seeds = range(args.seeds)
    # One batch per variant, so one gain pass each; a batch's runs are
    # released before the next batch starts.
    records = _export_seeds(out, doc, scenario, P, seeds)
    rows = []
    for (seed, first, inf, converged, slack), iso_max in zip(
        records, _isolated_maxima(scenario, seeds)
    ):
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
    p.add_argument("--seeds", type=int, default=10)
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
