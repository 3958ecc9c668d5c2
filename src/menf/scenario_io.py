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

validate_document checks the document's shape: unknown keys are rejected
everywhere with the offending path, matrices must be rectangular, numbers
finite (and non-negative or positive where a sign makes no sense), seeds
integers, and the tuning section names one mode. Every rule about what the
values mean lives in the model constructor that consumes them;
document_to_network and document_to_scenario build each object through
_build, which reports a failed rule at the object's key path. Floats
round-trip exactly through the canonical dump (shortest-repr YAML floats),
so reloading a re-serialized scenario rebuilds all derived matrices
bit-identically.
"""

from __future__ import annotations

import hashlib
import sys
from importlib import resources

import numpy as np
import yaml

from .errors import DimensionMismatch, NotPositiveDefinite, ScenarioFormatError, SelfLoop
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


def _number(value, location: str, low: float | None = None, strict: bool = False) -> float:
    """A finite number, optionally >= low (> low when strict)."""
    finite = isinstance(value, (int, float)) and abs(value) <= sys.float_info.max
    if isinstance(value, bool) or not finite:
        raise _fail(f"expected a finite number, got {value!r}", location)
    if low is not None and (value <= low if strict else value < low):
        raise _fail(f"expected a number {'>' if strict else '>='} {low:g}, got {value!r}", location)
    return float(value)


def _integer(value, location: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise _fail(f"expected an integer, got {value!r}", location)
    return value


def _seed(value, location: str) -> int:
    if _integer(value, location) < 0:
        raise _fail(f"expected a non-negative integer, got {value!r}", location)
    return value


def _blocks(value, location: str) -> list:
    if not isinstance(value, list) or not value:
        raise _fail("expected a list of blocks", location)
    return [_matrix(blk, f"{location}[{b}]") for b, blk in enumerate(value)]


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
# (key, lower bound or None, bound is strict) of a disturbance's numbers
_DIST_NUMBERS = (
    ("start", None, False), ("duration", 0.0, False), ("mean", None, False),
    ("std", 0.0, False), ("hold", 0.0, True),
)


# libyaml's parser when PyYAML was built with it, the same documents faster.
_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def _safe_load(text: str, source: str):
    """yaml.safe_load, through libyaml when present; a YAML error becomes a
    ScenarioFormatError at source:line:column."""
    try:
        return yaml.load(text, Loader=_LOADER)
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
            edge = _edge(ov["edge"], f"links.overrides[{k}].edge")
            if edge not in {tuple(e) for e in doc["edges"]}:
                raise _fail(
                    f"edge {list(edge)} is not in edges", f"links.overrides[{k}].edge"
                )
            for key in ("W", "F", "Z"):
                if key in ov:
                    _matrix(ov[key], f"links.overrides[{k}].{key}")
    elif doc["edges"]:
        raise _fail("edges present but no links section", "links")

    sim = _check_mapping(
        doc["sim"], ("T", "dt", "seed", "x0_law"), ("T", "dt", "seed", "x0_law"), "sim"
    )
    _number(sim["T"], "sim.T", 0.0, strict=True)
    _number(sim["dt"], "sim.dt", 0.0, strict=True)
    _seed(sim["seed"], "sim.seed")
    law = _check_mapping(
        sim["x0_law"], ("kind", "value", "mean", "std", "seed"), ("kind",), "sim.x0_law"
    )
    if "value" in law:
        _vector(law["value"], "sim.x0_law.value")
    _number(law.get("mean", 0.0), "sim.x0_law.mean")
    _number(law.get("std", 0.0), "sim.x0_law.std", 0.0)
    if "seed" in law:
        _seed(law["seed"], "sim.x0_law.seed")

    for k, spec in enumerate(doc.get("disturbances", [])):
        spec = _check_mapping(spec, _DIST_KEYS, ("kind", "target"), f"disturbances[{k}]")
        if "edge" in spec:
            _edge(spec["edge"], f"disturbances[{k}].edge")
        where = f"disturbances[{k}]."
        if isinstance(spec.get("amplitude"), list):
            _vector(spec["amplitude"], where + "amplitude")
        elif "amplitude" in spec:
            _number(spec["amplitude"], where + "amplitude")
        for key, low, strict in _DIST_NUMBERS:
            if key in spec:
                _number(spec[key], where + key, low, strict)
        if "node" in spec:
            _integer(spec["node"], where + "node")
        if "seed" in spec:
            _seed(spec["seed"], where + "seed")

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
                _blocks(tuning[key], f"tuning.{key}")

    if "gains" in doc:
        gains = _check_mapping(doc["gains"], ("K0",), ("K0",), "gains")
        _blocks(gains["K0"], "gains.K0")

    return doc


def load_document(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_document(fh.read(), source=str(path))


# ---------------------------------------------------------------------------
# Document -> model objects
# ---------------------------------------------------------------------------

_MODEL_ERRORS = (DimensionMismatch, NotPositiveDefinite, SelfLoop)


def _build(where: str, make, **kwargs):
    """make(**kwargs), with a failed model check re-raised as a
    ScenarioFormatError at the key path the error carries, else at where."""
    try:
        return make(**kwargs)
    except _MODEL_ERRORS as exc:
        raise _fail(str(exc), exc.key or where) from exc


def document_to_network(doc: dict) -> Network:
    plant = _build(
        "plant", PlantModel, A=np.array(doc["plant"]["A"]), B=np.array(doc["plant"]["B"])
    )
    edges = [tuple(e) for e in doc["edges"]]
    links_doc = doc.get("links", {})
    defaults = links_doc.get("defaults")
    overrides = {
        tuple(ov["edge"]): (k, ov) for k, ov in enumerate(links_doc.get("overrides", []))
    }

    def link_for(edge) -> NeighborLink:
        k, ov = overrides.get(edge, (None, {}))
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
        where = "links.defaults" if k is None else f"links.overrides[{k}]"
        return _build(where, NeighborLink, **parts)

    nodes = []
    for idx, nd in enumerate(doc["nodes"], start=1):
        links = {j: link_for((i, j)) for (i, j) in edges if i == idx}
        nodes.append(
            _build(
                f"nodes[{idx}]",
                NodeModel,
                C=np.array(nd["C"]),
                D=np.array(nd["D"]),
                xi=np.array(nd["xi"]),
                Xcal=np.array(nd["Xcal"]),
                links=links,
            )
        )
    return _build("edges", build_network, plant=plant, nodes=nodes, edges=edges)


def document_to_scenario(
    doc: dict,
    m_inv_blocks=None,
    minv_margin: float | None = None,
    m_inv_source: str = "M_inv",
) -> Scenario:
    """Build the whole Scenario of a document, checking every rule.

    M^-1 blocks come from the argument, else from an explicit tuning.M /
    tuning.M_inv section, else none: simulate then raises MissingTuning.
    m_inv_source names where argument blocks came from (such as
    "t.yaml: tuned.M_inv"); errors in them are reported there.
    """
    net = document_to_network(doc)
    sim = doc["sim"]
    law_doc = sim["x0_law"]
    law = _build(
        "sim.x0_law",
        X0Law,
        kind=law_doc["kind"],
        value=law_doc.get("value"),
        mean=float(law_doc.get("mean", 0.0)),
        std=float(law_doc.get("std", 0.0)),
        seed=law_doc.get("seed"),
    )
    specs = []
    for k, sd in enumerate(doc.get("disturbances", [])):
        kwargs = dict(sd)
        if "edge" in kwargs:
            kwargs["edge"] = tuple(kwargs["edge"])
        if "amplitude" in kwargs and isinstance(kwargs["amplitude"], list):
            kwargs["amplitude"] = np.array(kwargs["amplitude"], dtype=float)
        specs.append(_build(f"disturbances[{k}]", DisturbanceSpec, **kwargs))

    # Where the M^-1 blocks came from; Scenario's own checks name every other part.
    m_key = m_inv_source
    tuning = doc.get("tuning", {})
    if m_inv_blocks is None and "M_inv" in tuning:
        m_inv_blocks, m_key = tuning["M_inv"], "tuning.M_inv"
    elif m_inv_blocks is None and "M" in tuning:
        m_key = "tuning.M"
        try:
            m_inv_blocks = tuple(np.linalg.inv(np.array(b)) for b in tuning["M"])
        except np.linalg.LinAlgError as exc:
            raise _fail(f"blocks must be invertible: {exc}", m_key) from exc
    K0 = None
    if "gains" in doc:
        K0 = tuple(np.array(b) for b in doc["gains"]["K0"])
    return _build(
        m_key,
        Scenario,
        network=net,
        T=float(sim["T"]),
        dt=float(sim["dt"]),
        seed=int(sim["seed"]),
        x0_law=law,
        disturbances=tuple(specs),
        m_inv_blocks=None if m_inv_blocks is None else tuple(
            np.asarray(b, dtype=float) for b in m_inv_blocks
        ),
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
    where = str(P_file) if P_file is not None else "tuning.P"
    if "P" in tuning:
        P = np.array(tuning["P"], dtype=float)
    elif "P0" in tuning:
        where = "tuning.P0"
        P = _build(
            where,
            laplacian_P,
            net=net,
            P0=np.array(tuning["P0"], dtype=float),
            ridge=float(tuning.get("ridge", 0.0)),
        )
    else:
        P = laplacian_P(net, np.eye(net.n), ridge=0.01)
    size = net.n * net.N
    if P.shape != (size, size):
        raise _fail(f"P must be {size}x{size}, got {P.shape}", where)
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


# libyaml's emitter when PyYAML was built with it, the same bytes faster.
_DUMPER = getattr(yaml, "CSafeDumper", yaml.SafeDumper)


def dump_document(doc: dict) -> str:
    """Canonical YAML dump: stable key order, shortest-roundtrip floats."""
    return yaml.dump(doc, Dumper=_DUMPER, sort_keys=True, default_flow_style=None, width=100)


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


# (key, one entry per node, lower bound or None, bound is strict) of a
# tuned file's optional numbers
_TUNED_OPTIONAL = (
    ("node_lmi_margins", True, None, False), ("closed_loop_abscissas", True, None, False),
    ("mu_profile", True, 0.0, True), ("mu_lo_uniform", False, None, False),
    ("decay_floor", False, 0.0, False),
)
_TUNED_KEYS = ("M_inv", "minv_margin") + tuple(key for key, *_ in _TUNED_OPTIONAL)


def load_tuned_m(path) -> tuple[tuple[np.ndarray, ...], float]:
    """Read back a tuned file: (M^-1 blocks, stacked-condition margin).

    The optional keys are checked too, each per-node list for one number
    per M^-1 block; a bad value raises at "<path>: tuned.<key>".
    """
    with open(path, "r", encoding="utf-8") as fh:
        raw = _safe_load(fh.read(), str(path))
    tuned = _check_mapping(raw, ("tuned",), ("tuned",), str(path))["tuned"]
    where = f"{path}: tuned"
    _check_mapping(tuned, _TUNED_KEYS, ("M_inv", "minv_margin"), where)
    blocks = _blocks(tuned["M_inv"], f"{where}.M_inv")
    margin = _number(tuned["minv_margin"], f"{where}.minv_margin")
    for key, per_node, low, strict in (k for k in _TUNED_OPTIONAL if k[0] in tuned):
        at = f"{where}.{key}"
        values = _vector(tuned[key], at) if per_node else [tuned[key]]
        if per_node and len(values) != len(blocks):
            raise _fail(f"expected {len(blocks)} numbers, one per M_inv block", at)
        for value in values:
            _number(value, at, low, strict)
    return tuple(np.array(b) for b in blocks), margin


def bundled_chua_text() -> str:
    """The packaged executable form of the five-node Chua experiment."""
    return resources.files("menf").joinpath("data/chua.scenario").read_text("utf-8")
