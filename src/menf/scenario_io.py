"""Scenario file format: strict YAML schema, canonical dumps, content hashes.

One human-writable document describes a complete experiment:

    plant:    {A: [[...]], B: [[...]]}
    nodes:    [{C: [[...]], D: [[...]], xi: [...], Xcal: [[...]]}, ...]
    edges:    [[i, j], ...]                 # 1-based, j sends to i
    links:
      defaults:  {W: [[...]], F: [[...]], Z: [[...]]}
      overrides: [{edge: [i, j], W: ..., F: ..., Z: ...}, ...]   # optional
    sim:      {T: ..., dt: ..., seed: ...,
               x0_law: {kind: fixed, value: [...]}
                       | {kind: gaussian, mean: ..., std: ..., seed: ...}}
    disturbances:                            # optional
      - {kind: pulse, target: w, amplitude: ..., start: ..., duration: ...}
      - {kind: held_gaussian, target: v, node: 2, mean: 0, std: 1, hold: 0.1}
      - {kind: zero, target: eps, edge: [1, 3]}
    tuning:                                  # optional; pick one form
      {P0: [[...]] , ridge: ...} | {P: [[...]]}
      | {M: [block, ...]} | {M_inv: [block, ...]}
    gains:    {K0: [block, ...]}             # optional, defaults to Xcal

Unknown keys are rejected everywhere with the offending path, matrices must
be rectangular, and floats round-trip exactly through the canonical dump
(shortest-repr YAML floats), so reloading a re-serialized scenario rebuilds
all derived matrices bit-identically.
"""

from __future__ import annotations

import hashlib
from importlib import resources

import numpy as np
import yaml

from .errors import DimensionMismatch, MissingTuning, ScenarioFormatError
from .model import Network, NeighborLink, NodeModel, PlantModel, build_network
from .sim import DisturbanceSpec, Scenario, X0Law
from .tuning import TuningResult, laplacian_P


# ---------------------------------------------------------------------------
# Parsing helpers
# ---------------------------------------------------------------------------

def _fail(message: str, location: str) -> ScenarioFormatError:
    return ScenarioFormatError(message, location)


def _check_mapping(value, allowed, required, location: str) -> dict:
    if not isinstance(value, dict):
        raise _fail(f"expected a mapping, got {type(value).__name__}", location)
    unknown = set(value) - set(allowed)
    if unknown:
        raise _fail(f"unknown keys {sorted(unknown)}", location)
    missing = set(required) - set(value)
    if missing:
        raise _fail(f"missing required keys {sorted(missing)}", location)
    return value


def _matrix(value, location: str) -> list[list[float]]:
    if not isinstance(value, list) or not value or not all(
        isinstance(row, list) for row in value
    ):
        raise _fail("matrix must be a non-empty list of rows", location)
    width = len(value[0])
    out = []
    for r, row in enumerate(value):
        if len(row) != width:
            raise _fail(
                f"row {r} has {len(row)} entries, expected {width}", location
            )
        out.append([_number(x, f"{location}[{r}]") for x in row])
    return out


def _vector(value, location: str) -> list[float]:
    if not isinstance(value, list) or any(isinstance(x, list) for x in value):
        raise _fail("expected a flat list of numbers", location)
    return [_number(x, location) for x in value]


def _number(value, location: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _fail(f"expected a number, got {value!r}", location)
    return float(value)


def _integer(value, location: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise _fail(f"expected an integer, got {value!r}", location)
    return value


def _edge(value, location: str) -> tuple[int, int]:
    if not isinstance(value, list) or len(value) != 2:
        raise _fail("edge must be a pair [i, j]", location)
    return (_integer(value[0], location), _integer(value[1], location))


# ---------------------------------------------------------------------------
# Document loading / validation
# ---------------------------------------------------------------------------

_TOP_KEYS = ("plant", "nodes", "edges", "links", "sim", "disturbances", "tuning", "gains")
_DIST_KEYS = (
    "kind", "target", "node", "edge", "amplitude", "start", "duration",
    "mean", "std", "hold", "seed",
)


def _safe_load(text: str, source: str):
    """yaml.safe_load; a YAML error becomes a ScenarioFormatError at
    source:line:column."""
    try:
        return yaml.safe_load(text)
    except yaml.MarkedYAMLError as exc:
        mark = exc.problem_mark
        where = f"{source}:{mark.line + 1}:{mark.column + 1}" if mark else source
        raise ScenarioFormatError(str(exc.problem or exc), where) from exc
    except yaml.YAMLError as exc:
        raise ScenarioFormatError(str(exc), source) from exc


def parse_document(text: str, source: str = "<string>") -> dict:
    """Parse and validate a scenario document; raises ScenarioFormatError
    with line/column on YAML errors and with a key path on schema errors."""
    return validate_document(_safe_load(text, source), source)


def validate_document(raw, source: str = "<string>") -> dict:
    """Validate an already loaded scenario document and return it; raises
    ScenarioFormatError with the key path of the first bad value."""
    if raw is None:
        raise _fail("empty document", source)
    doc = _check_mapping(raw, _TOP_KEYS, ("plant", "nodes", "edges", "sim"), source)

    plant = _check_mapping(doc["plant"], ("A", "B"), ("A", "B"), "plant")
    _matrix(plant["A"], "plant.A")
    _matrix(plant["B"], "plant.B")

    if not isinstance(doc["nodes"], list) or not doc["nodes"]:
        raise _fail("nodes must be a non-empty list", "nodes")
    for k, node in enumerate(doc["nodes"], start=1):
        node = _check_mapping(
            node, ("C", "D", "xi", "Xcal"), ("C", "D", "xi", "Xcal"), f"nodes[{k}]"
        )
        _matrix(node["C"], f"nodes[{k}].C")
        _matrix(node["D"], f"nodes[{k}].D")
        _vector(node["xi"], f"nodes[{k}].xi")
        _matrix(node["Xcal"], f"nodes[{k}].Xcal")

    if not isinstance(doc["edges"], list):
        raise _fail("edges must be a list of pairs", "edges")
    for k, e in enumerate(doc["edges"]):
        _edge(e, f"edges[{k}]")

    if "links" in doc:
        links = _check_mapping(doc["links"], ("defaults", "overrides"), (), "links")
        if "defaults" in links:
            d = _check_mapping(
                links["defaults"], ("W", "F", "Z"), ("W", "F", "Z"), "links.defaults"
            )
            for key in ("W", "F", "Z"):
                _matrix(d[key], f"links.defaults.{key}")
        for k, ov in enumerate(links.get("overrides", [])):
            ov = _check_mapping(
                ov, ("edge", "W", "F", "Z"), ("edge",), f"links.overrides[{k}]"
            )
            _edge(ov["edge"], f"links.overrides[{k}].edge")
            for key in ("W", "F", "Z"):
                if key in ov:
                    _matrix(ov[key], f"links.overrides[{k}].{key}")
    elif doc["edges"]:
        raise _fail("edges present but no links section", "links")

    sim = _check_mapping(
        doc["sim"], ("T", "dt", "seed", "x0_law"), ("T", "dt", "seed", "x0_law"), "sim"
    )
    _number(sim["T"], "sim.T")
    _number(sim["dt"], "sim.dt")
    _integer(sim["seed"], "sim.seed")
    law = _check_mapping(
        sim["x0_law"], ("kind", "value", "mean", "std", "seed"), ("kind",), "sim.x0_law"
    )
    if law["kind"] == "fixed":
        if "value" not in law:
            raise _fail("fixed x0_law needs a value", "sim.x0_law")
        _vector(law["value"], "sim.x0_law.value")
    elif law["kind"] == "gaussian":
        _number(law.get("mean", 0.0), "sim.x0_law.mean")
        _number(law.get("std", 0.0), "sim.x0_law.std")
    else:
        raise _fail(f"unknown x0_law kind {law['kind']!r}", "sim.x0_law.kind")

    for k, spec in enumerate(doc.get("disturbances", [])):
        spec = _check_mapping(spec, _DIST_KEYS, ("kind", "target"), f"disturbances[{k}]")
        if spec["kind"] not in ("zero", "pulse", "held_gaussian"):
            raise _fail(f"unknown kind {spec['kind']!r}", f"disturbances[{k}].kind")
        if spec["target"] not in ("w", "v", "eps"):
            raise _fail(f"unknown target {spec['target']!r}", f"disturbances[{k}].target")
        if spec["target"] == "v" and "node" not in spec:
            raise _fail("target v needs node", f"disturbances[{k}]")
        if spec["target"] == "eps" and "edge" not in spec:
            raise _fail("target eps needs edge", f"disturbances[{k}]")
        if "edge" in spec:
            _edge(spec["edge"], f"disturbances[{k}].edge")

    if "tuning" in doc:
        tuning = _check_mapping(
            doc["tuning"], ("P0", "ridge", "P", "M", "M_inv"), (), "tuning"
        )
        modes = [k for k in ("P0", "P", "M", "M_inv") if k in tuning]
        if len(modes) != 1:
            raise _fail(
                f"tuning must specify exactly one of P0/P/M/M_inv, got {modes}", "tuning"
            )
        if "P0" in tuning:
            _matrix(tuning["P0"], "tuning.P0")
            _number(tuning.get("ridge", 0.0), "tuning.ridge")
        elif "ridge" in tuning:
            raise _fail("ridge only applies together with P0", "tuning.ridge")
        if "P" in tuning:
            _matrix(tuning["P"], "tuning.P")
        for key in ("M", "M_inv"):
            if key in tuning:
                if not isinstance(tuning[key], list) or not tuning[key]:
                    raise _fail("expected a list of blocks", f"tuning.{key}")
                for b, blk in enumerate(tuning[key]):
                    _matrix(blk, f"tuning.{key}[{b}]")

    if "gains" in doc:
        gains = _check_mapping(doc["gains"], ("K0",), ("K0",), "gains")
        if not isinstance(gains["K0"], list) or not gains["K0"]:
            raise _fail("expected a list of blocks", "gains.K0")
        for b, blk in enumerate(gains["K0"]):
            _matrix(blk, f"gains.K0[{b}]")

    return doc


def load_document(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_document(fh.read(), source=str(path))


# ---------------------------------------------------------------------------
# Document -> model objects
# ---------------------------------------------------------------------------

def document_to_network(doc: dict) -> Network:
    plant = PlantModel(A=np.array(doc["plant"]["A"]), B=np.array(doc["plant"]["B"]))
    edges = [tuple(e) for e in doc["edges"]]
    links_doc = doc.get("links", {})
    defaults = links_doc.get("defaults")
    overrides = {
        tuple(ov["edge"]): ov for ov in links_doc.get("overrides", [])
    }

    def link_for(edge) -> NeighborLink:
        ov = overrides.get(edge, {})
        parts = {}
        for key in ("W", "F", "Z"):
            if key in ov:
                parts[key] = np.array(ov[key])
            elif defaults is not None:
                parts[key] = np.array(defaults[key])
            else:
                raise _fail(
                    f"edge {list(edge)} has no {key} (no defaults and no override)",
                    "links",
                )
        return NeighborLink(**parts)

    nodes = []
    for idx, nd in enumerate(doc["nodes"], start=1):
        links = {j: link_for((i, j)) for (i, j) in edges if i == idx}
        nodes.append(
            NodeModel(
                C=np.array(nd["C"]),
                D=np.array(nd["D"]),
                xi=np.array(nd["xi"]),
                Xcal=np.array(nd["Xcal"]),
                links=links,
            )
        )
    return build_network(plant, nodes, edges)


def document_to_scenario(
    doc: dict, m_inv_blocks=None, minv_margin: float | None = None
) -> Scenario:
    """Build a runnable Scenario; M^-1 blocks come from the argument, else
    from an explicit tuning.M / tuning.M_inv section, else MissingTuning."""
    net = document_to_network(doc)
    sim = doc["sim"]
    law_doc = sim["x0_law"]
    if law_doc["kind"] == "fixed":
        law = X0Law(kind="fixed", value=np.array(law_doc["value"], dtype=float))
    else:
        law = X0Law(
            kind="gaussian",
            mean=float(law_doc.get("mean", 0.0)),
            std=float(law_doc.get("std", 0.0)),
            seed=law_doc.get("seed"),
        )
    specs = []
    for sd in doc.get("disturbances", []):
        kwargs = dict(sd)
        if "edge" in kwargs:
            kwargs["edge"] = tuple(kwargs["edge"])
        if "amplitude" in kwargs and isinstance(kwargs["amplitude"], list):
            kwargs["amplitude"] = np.array(kwargs["amplitude"], dtype=float)
        specs.append(DisturbanceSpec(**kwargs))

    if m_inv_blocks is None:
        tuning = doc.get("tuning", {})
        if "M_inv" in tuning:
            m_inv_blocks = tuple(np.array(b) for b in tuning["M_inv"])
        elif "M" in tuning:
            m_inv_blocks = tuple(
                np.linalg.inv(np.array(b)) for b in tuning["M"]
            )
        else:
            raise MissingTuning(
                "scenario document carries no M blocks; run `menf tune` first or "
                "pass a tuned file"
            )
    K0 = None
    if "gains" in doc:
        K0 = tuple(np.array(b) for b in doc["gains"]["K0"])
    return Scenario(
        network=net,
        T=float(sim["T"]),
        dt=float(sim["dt"]),
        seed=int(sim["seed"]),
        x0_law=law,
        disturbances=tuple(specs),
        m_inv_blocks=tuple(np.asarray(b, dtype=float) for b in m_inv_blocks),
        K0_blocks=K0,
        minv_margin=minv_margin,
    )


def tuning_P_from_document(doc: dict, net: Network, P_file=None) -> np.ndarray:
    """The weighting P of a run, checked to be nN x nN.

    Read from P_file when given, a YAML mapping {P: matrix}; else from the
    document's tuning section: its P, or laplacian_P(P0, ridge). A document
    with neither (a run tuned by M or M_inv, or by a tuned file) falls back
    to laplacian_P(I, ridge=0.01), the weighting of the built-in Chua
    experiment.
    """
    if P_file is not None:
        with open(P_file, "r", encoding="utf-8") as fh:
            raw = _safe_load(fh.read(), str(P_file))
        tuning = _check_mapping(raw, ("P",), ("P",), str(P_file))
        _matrix(tuning["P"], f"{P_file}: P")
    else:
        tuning = doc.get("tuning", {})
    if "P" in tuning:
        P = np.array(tuning["P"], dtype=float)
    elif "P0" in tuning:
        P = laplacian_P(
            net, np.array(tuning["P0"], dtype=float), float(tuning.get("ridge", 0.0))
        )
    else:
        P = laplacian_P(net, np.eye(net.n), ridge=0.01)
    size = net.n * net.N
    if P.shape != (size, size):
        raise DimensionMismatch(f"P must be {size}x{size}, got {P.shape}")
    return P


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def _listify(arr) -> list:
    return np.asarray(arr, dtype=float).tolist()


def scenario_to_document(scenario: Scenario, include_m: bool = True) -> dict:
    """Re-serialize a Scenario into the document schema."""
    net = scenario.network
    doc: dict = {
        "plant": {"A": _listify(net.plant.A), "B": _listify(net.plant.B)},
        "nodes": [
            {
                "C": _listify(node.C),
                "D": _listify(node.D),
                "xi": _listify(node.xi),
                "Xcal": _listify(node.Xcal),
            }
            for node in net.nodes
        ],
        "edges": [[i, j] for (i, j) in net.edges],
    }
    if net.edges:
        doc["links"] = {
            "overrides": [
                {
                    "edge": [i, j],
                    "W": _listify(net.link(i, j).W),
                    "F": _listify(net.link(i, j).F),
                    "Z": _listify(net.link(i, j).Z),
                }
                for (i, j) in net.edges
            ]
        }
    law = scenario.x0_law
    law_doc = {"kind": law.kind}
    if law.kind == "fixed":
        law_doc["value"] = _listify(law.value)
    else:
        law_doc["mean"] = law.mean
        law_doc["std"] = law.std
        if law.seed is not None:
            law_doc["seed"] = law.seed
    doc["sim"] = {
        "T": scenario.T,
        "dt": scenario.dt,
        "seed": scenario.seed,
        "x0_law": law_doc,
    }
    if scenario.disturbances:
        specs = []
        for s in scenario.disturbances:
            sd: dict = {"kind": s.kind, "target": s.target}
            if s.node is not None:
                sd["node"] = s.node
            if s.edge is not None:
                sd["edge"] = list(s.edge)
            if s.kind == "pulse":
                amp = np.asarray(s.amplitude, dtype=float)
                sd["amplitude"] = amp.tolist() if amp.ndim else float(amp)
                sd["start"] = s.start
                sd["duration"] = s.duration
            if s.kind == "held_gaussian":
                sd["mean"] = s.mean
                sd["std"] = s.std
                sd["hold"] = s.hold
                if s.seed is not None:
                    sd["seed"] = s.seed
            specs.append(sd)
        doc["disturbances"] = specs
    if include_m and scenario.m_inv_blocks is not None:
        doc["tuning"] = {"M_inv": [_listify(b) for b in scenario.m_inv_blocks]}
    if scenario.K0_blocks is not None:
        doc["gains"] = {"K0": [_listify(b) for b in scenario.K0_blocks]}
    return doc


def dump_document(doc: dict) -> str:
    """Canonical YAML dump: stable key order, shortest-roundtrip floats."""
    return yaml.safe_dump(doc, sort_keys=True, default_flow_style=None, width=100)


def document_hash(doc: dict) -> str:
    return hashlib.sha256(dump_document(doc).encode("utf-8")).hexdigest()


def tuning_result_to_document(result: TuningResult) -> dict:
    doc = {
        "M_inv": [_listify(b) for b in result.m_inv_blocks],
        "minv_margin": float(result.minv_margin),
        "node_lmi_margins": [
            float(c.lmi_margin) for c in result.node_certificates
        ],
        "closed_loop_abscissas": [
            float(c.are.closed_loop_spectral_abscissa)
            for c in result.node_certificates
        ],
    }
    if result.mu_profile is not None:
        doc["mu_profile"] = [float(m) for m in result.mu_profile]
    if result.mu_lo_uniform is not None:
        doc["mu_lo_uniform"] = float(result.mu_lo_uniform)
    if result.decay_floor is not None:
        doc["decay_floor"] = float(result.decay_floor)
    return {"tuned": doc}


def load_tuned_m(path) -> tuple[tuple[np.ndarray, ...], float]:
    """Read back a tuned file: (M^-1 blocks, stacked-condition margin)."""
    with open(path, "r", encoding="utf-8") as fh:
        raw = _safe_load(fh.read(), str(path))
    if not isinstance(raw, dict) or "tuned" not in raw:
        raise ScenarioFormatError("not a tuned-M file (missing 'tuned' key)", str(path))
    tuned = raw["tuned"]
    blocks = tuple(np.array(b, dtype=float) for b in tuned["M_inv"])
    return blocks, float(tuned["minv_margin"])


def bundled_chua_text() -> str:
    """The packaged executable form of the five-node Chua experiment."""
    return resources.files("menf").joinpath("data/chua.scenario").read_text("utf-8")
