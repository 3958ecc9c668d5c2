"""The four workloads: inputs made from the seed, the timed body, the checks.

Each workload has three steps. ``setup`` builds the inputs through menf's
constructors and is part of ``setup_s``. ``body`` is one round of the timed
work and calls menf only through its public functions and ``menf.cli.main``,
looked up on the module at call time so that the traced run's wrappers see
every call. ``check`` runs after the round, outside the timing, and turns
the round's outputs into operations, each passed, failed or wrong; its
reference values come from ``checks``, which does not import menf.

Operation accounting: an operation *fails* when menf reports an error
(non-zero exit status) or when a verify-from-disk report's budget differs
from the exact budget, the known fault of the CSV reload path, which
integrates grid samples by trapezoid. Any other check that does not hold
is a *problem* and makes the run incorrect.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np
import yaml

import checks
import menf
import menf.cli
import menf.scenario_io

# The paper's Chua-circuit plant and its two sensor kinds.
CHUA_A = np.array([[-3.2, 10.0, 0.0], [1.0, -1.0, 1.0], [0.0, -14.87, 0.0]])
C_WEAK = 0.001 * np.array([[3.1923, -4.6597, 1.0]])
C_STRONG = np.array([[-0.8986, 0.1312, -1.9703]])

CHUA_SEEDS = 2              # reproduce-chua --seeds
ROUNDTRIP_NODES = 6
ROUNDTRIP_RUNS = 2          # simulate + verify pairs after one tune
RING_NODES = 24
SWEEP_SIZES = (6, 10, 16, 24)
ISOLATION_MIN = 10.0        # acceptance criterion 9
X0_LAW = {"kind": "gaussian", "mean": 0.1, "std": 0.2}


@dataclass
class Op:
    """One checked operation of a round."""

    name: str
    failed: bool = False
    problems: list[str] = field(default_factory=list)

    def expect(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(f"{self.name}: {message}")


def _quiet(argv: list[str]) -> int:
    """menf.cli.main with its output kept off the worker's stdout; its
    messages are passed on when the command fails."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = menf.cli.main(argv)
    if rc != 0:
        sys.stderr.write(f"menf {argv[0]} exited {rc}: {err.getvalue()}")
    return rc


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

def heterogeneous_network(rng: np.random.Generator, N: int) -> dict:
    """A ring with one chord offset, weak sensors every third or fourth node.

    Every node is distinct: its sensor row, noise level, prior and link
    noise are drawn around the Chua values, close enough that the tuner
    certifies every member of the family.
    """
    A = CHUA_A * rng.uniform(0.95, 1.05, size=(3, 3))
    B = rng.uniform(0.35, 0.45) * np.eye(3)
    chord = int(rng.integers(2, N // 2 + 1))
    edges = sorted(
        {(i, (i - 1 + off) % N + 1) for i in range(1, N + 1) for off in (1, -1, chord)}
    )
    period = int(rng.integers(3, 5))
    links = {
        e: (np.eye(3), rng.uniform(0.45, 0.55) * np.eye(3), rng.uniform(0.09, 0.11) * np.eye(3))
        for e in edges
    }
    nodes = [
        {
            "C": (C_WEAK if i % period == 1 else C_STRONG) * (1 + 0.1 * rng.normal(size=(1, 3))),
            "D": np.array([[0.025 * rng.uniform(0.9, 1.2)]]),
            "xi": np.zeros(3),
            "Xcal": rng.uniform(5.0, 15.0) * np.eye(3),
        }
        for i in range(1, N + 1)
    ]
    return {"A": A, "B": B, "nodes": nodes, "edges": edges, "links": links,
            "P0": np.eye(3), "ridge": 0.01}


def spec_from_document(doc: dict) -> dict:
    """The raw network of a scenario document, read without menf."""
    edges = [tuple(e) for e in doc["edges"]]
    links_doc = doc.get("links", {})
    defaults = links_doc.get("defaults", {})
    overrides = {tuple(o["edge"]): o for o in links_doc.get("overrides", [])}
    links = {
        e: tuple(np.array(overrides.get(e, {}).get(k, defaults.get(k)), dtype=float) for k in "WFZ")
        for e in edges
    }
    nodes = [{k: np.array(nd[k], dtype=float) for k in ("C", "D", "xi", "Xcal")}
             for nd in doc["nodes"]]
    tuning = doc["tuning"]
    return {"A": np.array(doc["plant"]["A"], dtype=float),
            "B": np.array(doc["plant"]["B"], dtype=float),
            "nodes": nodes, "edges": edges, "links": links,
            "P0": np.array(tuning["P0"], dtype=float), "ridge": float(tuning.get("ridge", 0.0))}


def menf_network(spec: dict):
    plant = menf.PlantModel(A=spec["A"], B=spec["B"])
    nodes = []
    for i, nd in enumerate(spec["nodes"], start=1):
        links = {j: menf.NeighborLink(W=W, F=F, Z=Z)
                 for (a, j), (W, F, Z) in spec["links"].items() if a == i}
        nodes.append(menf.NodeModel(C=nd["C"], D=nd["D"], xi=nd["xi"], Xcal=nd["Xcal"], links=links))
    return menf.build_network(plant, nodes, spec["edges"])


def menf_scenario(spec: dict, net, dists: list[dict], T: float, dt: float, seed: int):
    specs = [menf.DisturbanceSpec(**{k: (tuple(v) if k == "edge" else v) for k, v in d.items()})
             for d in dists]
    return menf.Scenario(network=net, T=T, dt=dt, seed=seed, x0_law=menf.X0Law(**X0_LAW),
                         disturbances=tuple(specs))


def _pulse(target: str, amplitude: float, start: float, duration: float, **where) -> dict:
    return {"kind": "pulse", "target": target, "amplitude": amplitude,
            "start": start, "duration": duration, **where}


def _held(target: str, std: float, hold: float, **where) -> dict:
    return {"kind": "held_gaussian", "target": target, "mean": 0.0, "std": std,
            "hold": hold, **where}


def channel_key(d: dict) -> tuple:
    if d["target"] == "w":
        return ("w",)
    if d["target"] == "v":
        return ("v", d["node"])
    return ("eps",) + tuple(d["edge"])


# ---------------------------------------------------------------------------
# checks shared by the workloads
# ---------------------------------------------------------------------------

def check_run(op: Op, spec: dict, dists: list[dict], T: float, dt: float,
              x: np.ndarray, e: np.ndarray, K: np.ndarray, samples: dict) -> dict:
    """Check one simulated run and return the benchmark's own bound terms.

    x is (steps+1, n), the errors e (N, steps+1, n), K (N, steps+1, n, n); samples
    maps each channel key to menf's grid samples of that channel.
    """
    steps = round(T / dt)
    by_channel: dict[tuple, list[dict]] = {}
    for d in dists:
        by_channel.setdefault(channel_key(d), []).append(d)
    N = len(spec["nodes"])
    energies = {}
    for key, values in samples.items():
        chan = by_channel.get(key, [])
        panels = checks.channel_panels(chan, values, dt, steps)
        energies[key] = checks.exact_energy(chan, panels, dt, T)
        if key == ("w",):
            w_panels = panels
    excess = checks.plant_step_excess(spec["A"], spec["B"], x, w_panels, dt)
    op.expect(excess <= 1.0, f"plant state departs from the exact step by {excess:.3g}x the RK4 bound")
    min_eig = checks.min_gain_eigenvalue(K)
    op.expect(min_eig > 0.0, f"gain loses positivity (min eigenvalue {min_eig:.3g})")

    P = checks.laplacian_weight(N, spec["edges"], spec["P0"], spec["ridge"])
    lhs = checks.lhs_cost(np.transpose(e, (1, 0, 2)).reshape(x.shape[0], -1), P, dt)
    rhs = (checks.init_budget(x[0], spec["nodes"]) + N * energies.pop(("w",))
           + sum(energies.values()))
    return {"lhs": lhs, "rhs": rhs, "slack": rhs - lhs}


def check_bound(op: Op, own: dict, lhs: float, rhs: float, slack: float, certified: bool) -> None:
    op.expect(checks.rel_gap(lhs, own["lhs"]) <= checks.REL_TOL,
              f"lhs {lhs:.17g} differs from the recomputed {own['lhs']:.17g}")
    op.expect(checks.rel_gap(slack, rhs - lhs) <= checks.REL_TOL, "slack is not rhs - lhs")
    if certified:
        op.expect(own["slack"] >= 0.0, f"slack {own['slack']:.6g} < 0 under a certified tuning")


def budget_matches(rhs: float, own: dict) -> bool:
    return checks.rel_gap(rhs, own["rhs"]) <= checks.REL_TOL


def check_stacked(op: Op, spec: dict, m_inv_blocks, reported_margin: float) -> list:
    """Recompute the stacked-condition margin from the link matrices; return
    the per-node Delta_ii blocks for the LMI re-check."""
    n, N = spec["A"].shape[0], len(spec["nodes"])
    P = checks.laplacian_weight(N, spec["edges"], spec["P0"], spec["ridge"])
    Lt, Dt, delta = checks.stacked_matrices(n, N, spec["links"])
    margin = checks.stacked_margin(m_inv_blocks, P, Lt, Dt)
    op.expect(margin > 0.0, f"stacked condition fails (margin {margin:.3g})")
    op.expect(checks.rel_gap(margin, reported_margin) <= checks.REL_TOL,
              f"stacked margin {reported_margin:.17g} != recomputed {margin:.17g}")
    return delta


def check_certificate(op: Op, spec: dict, result) -> bool:
    """Re-check a TuningResult in memory: stacked condition and LMI witnesses."""
    N = len(spec["nodes"])
    P = checks.laplacian_weight(N, spec["edges"], spec["P0"], spec["ridge"])
    op.expect(np.allclose(result.P, P, rtol=1e-12, atol=1e-12), "tuning weight P is not the Laplacian")
    delta = check_stacked(op, spec, result.m_inv_blocks, result.minv_margin)
    op.expect(len(result.node_certificates) == N, "missing node certificates")
    for i, cert in enumerate(result.node_certificates):
        nd = spec["nodes"][i]
        lam = checks.lmi_block_max(spec["A"], spec["B"], nd["C"], nd["D"], delta[i],
                                   result.m_inv_blocks[i], cert.lmi_witness)
        op.expect(lam < checks.LMI_STRICTNESS, f"node {i + 1} LMI block max {lam:.3g} >= -1e-10")
    return not op.problems


def check_tuned_file(op: Op, spec: dict, path: Path) -> bool:
    """Re-check the stacked condition of a `menf tune` file. The file holds no
    LMI witnesses, so those are re-checked on the in-memory workloads."""
    tuned = yaml.safe_load(path.read_text(encoding="utf-8"))["tuned"]
    check_stacked(op, spec, [np.array(b, dtype=float) for b in tuned["M_inv"]],
                  tuned["minv_margin"])
    return not op.problems


def _csv(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def read_exported_run(run_dir: Path, spec: dict):
    """t, x, the errors e, K and the disturbance samples of a `menf simulate` export."""
    N, n = len(spec["nodes"]), spec["A"].shape[0]
    state = _csv(run_dir / "state.csv")
    x = state[:, 1:]
    e = np.stack([_csv(run_dir / f"errors_node{i}.csv")[:, 1:] for i in range(1, N + 1)])
    K = np.stack([_csv(run_dir / f"gains_node{i}.csv")[:, 1:].reshape(-1, n, n)
                  for i in range(1, N + 1)])
    samples = {("w",): _csv(run_dir / "disturbance_w.csv")[:, 1:]}
    for i in range(1, N + 1):
        samples[("v", i)] = _csv(run_dir / f"disturbance_v_node{i}.csv")[:, 1:]
    for (i, j) in spec["edges"]:
        samples[("eps", i, j)] = _csv(run_dir / f"disturbance_eps_{i}_{j}.csv")[:, 1:]
    return state[:, 0], x, e, K, samples


def memory_samples(traj) -> dict:
    samples = {("w",): traj.w_samples}
    samples.update({("v", i): s for i, s in traj.v_samples.items()})
    samples.update({("eps",) + e: s for e, s in traj.eps_samples.items()})
    return samples


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class ChuaReproduce:
    """`menf reproduce-chua` in-process: the paper's five-node experiment.

    reproduce-chua always runs seeds 0..CHUA_SEEDS-1 of the bundled
    scenario, so this workload's inputs do not depend on the seed.
    """

    def setup(self, seed: int, workdir: Path) -> dict:
        doc = menf.scenario_io.parse_document(menf.scenario_io.bundled_chua_text())
        return {"doc": doc, "spec": spec_from_document(doc)}

    def body(self, state: dict, out: Path) -> dict:
        return {"rc": _quiet(["reproduce-chua", "--out", str(out), "--seeds", str(CHUA_SEEDS)])}

    def check(self, state: dict, result: dict, out: Path) -> list[Op]:
        ops = [Op("tune")] + [Op(f"seed {s}") for s in range(CHUA_SEEDS)]
        if result["rc"] != 0:
            for op in ops:
                op.failed = True
            return ops
        spec, doc = state["spec"], state["doc"]
        certified = check_tuned_file(ops[0], spec, out / "tuned.yaml")
        with open(out / "summary.csv", encoding="utf-8") as fh:
            rows = {int(r["seed"]): r for r in csv.DictReader(fh)}
        T, dt = float(doc["sim"]["T"]), float(doc["sim"]["dt"])
        for s, op in enumerate(ops[1:]):
            row = rows.get(s)
            op.expect(row is not None, "missing from summary.csv")
            if row is None:
                continue
            t, x, e, K, samples = read_exported_run(out / f"seed_{s}", spec)
            own = check_run(op, spec, doc["disturbances"], T, dt, x, e, K, samples)
            slack = float(row["hinf_slack"])
            op.expect(checks.rel_gap(slack, own["slack"]) <= checks.REL_TOL,
                      f"slack {slack:.17g} != recomputed {own['slack']:.17g}")
            if certified:
                op.expect(own["slack"] >= 0.0, f"slack {own['slack']:.6g} < 0 under a certified tuning")
            window = t >= t[-1] - 1.0
            ratio = float(row["isolated_node1_max_inf"]) / float(np.max(np.abs(e[0, window])))
            op.expect(checks.rel_gap(ratio, float(row["isolation_ratio"])) <= checks.REL_TOL,
                      f"isolation ratio {row['isolation_ratio']} != recomputed {ratio:.6g}")
            op.expect(ratio >= ISOLATION_MIN, f"isolation ratio {ratio:.3g} < {ISOLATION_MIN}")
        return ops


class ScenarioRoundtrip:
    """`menf tune`, then `menf simulate` and `menf verify` per seed, through disk.

    A six-node ring-with-chord scenario, unlike Chua's tree of links, with
    held-gaussian noise on every w and v channel; w, v_1 and one eps channel
    each sum a held signal and a pulse.
    """

    T, DT = 2.0, 1e-3

    def setup(self, seed: int, workdir: Path) -> dict:
        rng = np.random.default_rng(seed)
        spec = heterogeneous_network(rng, ROUNDTRIP_NODES)
        first_edge = list(spec["edges"][0])
        dists = [_held("w", 0.5, 0.05),
                 _pulse("w", float(rng.uniform(0.5, 1.5)), 0.2, 0.5)]
        for i in range(1, ROUNDTRIP_NODES + 1):
            dists.append(_held("v", 0.3, 0.1, node=i))
        dists.append(_pulse("v", 1.0, 0.3, 0.4, node=1))
        for e in spec["edges"]:
            dists.append(_pulse("eps", 1.0, 0.1, 0.4, edge=list(e)))
        dists.append(_held("eps", 0.2, 0.1, edge=first_edge))
        net = menf_network(spec)
        scenario = menf_scenario(spec, net, dists, self.T, self.DT, seed)
        doc = menf.scenario_io.scenario_to_document(scenario, include_m=False)
        doc["tuning"] = {"P0": spec["P0"].tolist(), "ridge": spec["ridge"]}
        path = workdir / "roundtrip.scenario"
        path.write_text(menf.scenario_io.dump_document(doc), encoding="utf-8")
        return {"path": path, "spec": spec, "dists": dists,
                "seeds": [1000 * seed + k for k in range(1, ROUNDTRIP_RUNS + 1)]}

    def body(self, state: dict, out: Path) -> dict:
        out.mkdir(parents=True, exist_ok=True)
        tuned = out / "tuned.yaml"
        rcs = {"tune": _quiet(["tune", str(state["path"]), "--out", str(tuned)])}
        for s in state["seeds"]:
            run = out / f"run_{s}"
            rcs[("simulate", s)] = _quiet(["simulate", str(state["path"]), "--out", str(run),
                                           "--seed", str(s), "--tuned", str(tuned)])
            rcs[("verify", s)] = _quiet(["verify", str(run)])
        return rcs

    def check(self, state: dict, result: dict, out: Path) -> list[Op]:
        spec, dists = state["spec"], state["dists"]
        tune = Op("tune", failed=result["tune"] != 0)
        certified = not tune.failed and check_tuned_file(tune, spec, out / "tuned.yaml")
        ops = [tune]
        for s in state["seeds"]:
            sim = Op(f"simulate {s}", failed=result[("simulate", s)] != 0)
            ver = Op(f"verify {s}", failed=result[("verify", s)] != 0)
            ops += [sim, ver]
            if sim.failed:
                ver.failed = True
                continue
            run = out / f"run_{s}"
            t, x, e, K, samples = read_exported_run(run, spec)
            own = check_run(sim, spec, dists, self.T, self.DT, x, e, K, samples)
            if ver.failed:
                continue
            report = json.loads((run / "hinf_report.json").read_text(encoding="utf-8"))
            check_bound(ver, own, report["lhs"], report["rhs"], report["slack"], certified)
            # The known fault: the reloaded budget is a trapezoid of grid samples.
            ver.failed = not budget_matches(report["rhs"], own)
        return ops


class RingScale:
    """One large ring-with-chord network in memory: tune, simulate one seed,
    check_hinf. Per-step cost grows with nodes x neighbours."""

    T, DT = 1.0, 1e-3

    def setup(self, seed: int, workdir: Path) -> dict:
        rng = np.random.default_rng(seed)
        spec = heterogeneous_network(rng, RING_NODES)
        dists = [_held("w", 0.5, 0.05), _pulse("w", 1.0, 0.1, 0.3)]
        dists += [_pulse("v", 1.0, 0.1, 0.3, node=i) for i in range(1, RING_NODES + 1)]
        dists += [_pulse("eps", 1.0, 0.1, 0.3, edge=list(e)) for e in spec["edges"]]
        net = menf_network(spec)
        P = menf.laplacian_P(net, spec["P0"], spec["ridge"])
        scenario = menf_scenario(spec, net, dists, self.T, self.DT, seed)
        return {"spec": spec, "dists": dists, "net": net, "P": P, "scenario": scenario}

    def body(self, state: dict, out: Path) -> dict:
        result = menf.tune_scalar(state["net"], state["P"])
        scenario = replace(state["scenario"], m_inv_blocks=result.m_inv_blocks,
                           minv_margin=result.minv_margin)
        traj = menf.simulate(scenario)
        report = menf.check_hinf(scenario, traj, state["P"])
        return {"tuning": result, "traj": traj, "report": report}

    def check(self, state: dict, result: dict, out: Path) -> list[Op]:
        spec = state["spec"]
        tune, sim, bound = Op("tune"), Op("simulate"), Op("check_hinf")
        certified = check_certificate(tune, spec, result["tuning"])
        traj, report = result["traj"], result["report"]
        own = check_run(sim, spec, state["dists"], self.T, self.DT, traj.x,
                        traj.xhat - traj.x[None], traj.K, memory_samples(traj))
        check_bound(bound, own, report.lhs, report.rhs, report.slack, certified)
        bound.expect(budget_matches(report.rhs, own),
                     f"budget {report.rhs:.17g} != exact {own['rhs']:.17g}")
        return [tune, sim, bound]


class TuneSweep:
    """tune_scalar on a seeded family of distinct heterogeneous networks."""

    def setup(self, seed: int, workdir: Path) -> dict:
        rng = np.random.default_rng(seed)
        specs = [heterogeneous_network(rng, N) for N in SWEEP_SIZES]
        nets = [menf_network(s) for s in specs]
        Ps = [menf.laplacian_P(net, s["P0"], s["ridge"]) for net, s in zip(nets, specs)]
        return {"specs": specs, "nets": nets, "Ps": Ps}

    def body(self, state: dict, out: Path) -> dict:
        return {"results": [menf.tune_scalar(net, P) for net, P in zip(state["nets"], state["Ps"])]}

    def check(self, state: dict, result: dict, out: Path) -> list[Op]:
        ops = []
        for spec, res in zip(state["specs"], result["results"]):
            op = Op(f"tune N={len(spec['nodes'])}")
            check_certificate(op, spec, res)
            ops.append(op)
        return ops


WORKLOADS = {
    "chua-reproduce": ChuaReproduce,
    "scenario-roundtrip": ScenarioRoundtrip,
    "ring-scale": RingScale,
    "tune-sweep": TuneSweep,
}
