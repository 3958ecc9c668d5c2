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

Each mapping is declared once, as a table {key: check} beside its required
keys; _walk checks a mapping against its table. A disturbance and an x0 law
take the keys of their kind alone (pulse: amplitude, start, duration;
held_gaussian: mean, std, hold, seed; zero: none; fixed: value; gaussian:
mean, std, seed), and scenario_to_document writes those same keys. The
tuned file (load_tuned_m) and a run's manifest (cli) are tables too.

validate_document checks the document's shape: a key outside its table is
rejected at its path, matrices must be rectangular, numbers finite (and
non-negative or positive where a sign makes no sense), seeds integers, an
override names an edge once, and the tuning section names one mode. Every
rule about what the values mean lives in the model constructor that
consumes them; document_to_network and document_to_scenario build each
object through _build, which reports a failed rule at the object's key
path. Floats round-trip exactly through the canonical dump, so reloading a
re-serialized scenario rebuilds all derived matrices bit-identically.
"""

from __future__ import annotations

import hashlib
import sys
from importlib import resources

import numpy as np
import yaml

from .errors import DimensionMismatch, NotPositiveDefinite, ScenarioFormatError, SelfLoop
from .linalg import require_psd
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


def _edge(value, location: str) -> tuple[int, int]:
    if not isinstance(value, list) or len(value) != 2:
        raise _fail("edge must be a pair [i, j]", location)
    return (_integer(value[0], location), _integer(value[1], location))


def _positive(value, location: str) -> float:
    return _number(value, location, 0.0, strict=True)


def _non_negative(value, location: str) -> float:
    return _number(value, location, 0.0)


def _amplitude(value, location: str):
    """A pulse amplitude: one number, or one per component."""
    return _vector(value, location) if isinstance(value, list) else _number(value, location)


def _flag(value, location: str) -> bool:
    if not isinstance(value, bool):
        raise _fail("expected true or false", location)
    return value


def _unchecked(value, location: str):
    """A value whose rules live in the constructor that reads it."""
    return value


def _walk(value, location: str, table: dict, required=(), prefix: str | None = None) -> dict:
    """Check a mapping against its table {key: check}: no key outside the
    table and every required key present, then check(value, path) of each
    key present, path being prefix + key (location + "." by default)."""
    _check_mapping(value, table, required, location)
    prefix = f"{location}." if prefix is None else prefix
    for key, check in table.items():
        if key in value:
            check(value[key], prefix + key)
    return value


def _keys(table: dict, required=()):
    """The check of a mapping declared by its table and its required keys."""
    return lambda value, location: _walk(value, location, table, required)


def _list_of(check, what: str = "a list", first: int = 0, nonempty: bool = False):
    """The check of a list, each item checked at location[k], k counting
    from first."""
    def check_list(value, location):
        if not isinstance(value, list) or (nonempty and not value):
            raise _fail(f"expected {what}", location)
        for k, item in enumerate(value, start=first):
            check(item, f"{location}[{k}]")
        return value
    return check_list


_blocks = _list_of(_matrix, "a list of blocks", nonempty=True)


def _kind_table(value, common: dict, kinds: dict) -> dict:
    """The table of a mapping with a kind: common's keys and its kind's. An
    unknown kind takes every kind's keys, so that its constructor names it."""
    kind = value.get("kind") if isinstance(value, dict) else None
    own = kinds.get(kind) if isinstance(kind, str) else None
    if own is None:
        own = {key: check for table in kinds.values() for key, check in table.items()}
    return {**common, **own}


def _of_kind(common: dict, kinds: dict, required=("kind",)):
    """The check of a mapping with a kind: _walk over its _kind_table."""
    return lambda value, at: _walk(value, at, _kind_table(value, common, kinds), required)


# The tables of a scenario document; a disturbance or an x0 law takes the
# keys common to every kind and those of its kind's table.
_MATRICES = {"W": _matrix, "F": _matrix, "Z": _matrix}
_NODE = {"C": _matrix, "D": _matrix, "xi": _vector, "Xcal": _matrix}
_DISTURBANCE = {"kind": _unchecked, "target": _unchecked, "node": _integer, "edge": _edge}
_DISTURBANCE_KINDS = {
    "pulse": {"amplitude": _amplitude, "start": _number, "duration": _non_negative},
    "held_gaussian": {"mean": _number, "std": _non_negative, "hold": _positive, "seed": _seed},
    "zero": {},
}
_X0_LAW = {"kind": _unchecked}
_X0_LAWS = {
    "fixed": {"value": _vector},
    "gaussian": {"mean": _number, "std": _non_negative, "seed": _seed},
}
_SIM = {"T": _positive, "dt": _positive, "seed": _seed, "x0_law": _of_kind(_X0_LAW, _X0_LAWS)}
_LINKS = {
    "defaults": _keys(_MATRICES, tuple(_MATRICES)),
    "overrides": _list_of(_keys({"edge": _edge, **_MATRICES}, ("edge",))),
}
_TUNING = {"P0": _matrix, "ridge": _number, "P": _matrix, "M": _blocks, "M_inv": _blocks}
_DOCUMENT = {
    "plant": _keys({"A": _matrix, "B": _matrix}, ("A", "B")),
    "nodes": _list_of(_keys(_NODE, tuple(_NODE)), "a non-empty list", first=1, nonempty=True),
    "edges": _list_of(_edge, "a list of pairs"),
    "links": _keys(_LINKS),
    "sim": _keys(_SIM, tuple(_SIM)),
    "disturbances": _list_of(_of_kind(_DISTURBANCE, _DISTURBANCE_KINDS, ("kind", "target"))),
    "tuning": _keys(_TUNING),
    "gains": _keys({"K0": _blocks}, ("K0",)),
}


# ---------------------------------------------------------------------------
# Document loading / validation
# ---------------------------------------------------------------------------

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
    doc = _walk(raw, source, _DOCUMENT, ("plant", "nodes", "edges", "sim"), prefix="")
    edges = {tuple(e) for e in doc["edges"]}
    if edges and "links" not in doc:
        raise _fail("edges present but no links section", "links")
    first = {}
    for k, ov in enumerate(doc.get("links", {}).get("overrides", [])):
        edge, where = tuple(ov["edge"]), f"links.overrides[{k}].edge"
        if edge not in edges:
            raise _fail(f"edge {list(edge)} is not in edges", where)
        if edge in first:
            raise _fail(
                f"edge {list(edge)} is overridden already by links.overrides[{first[edge]}]",
                where,
            )
        first[edge] = k
    tuning = doc.get("tuning", {})
    modes = [k for k in ("P0", "P", "M", "M_inv") if k in tuning]
    if "tuning" in doc and len(modes) != 1:
        raise _fail(f"tuning must specify exactly one of P0/P/M/M_inv, got {modes}", "tuning")
    if "ridge" in tuning and "P0" not in tuning:
        raise _fail("ridge only applies together with P0", "tuning.ridge")
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
        for key in _MATRICES:
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
        arrays = {key: np.array(nd[key]) for key in _NODE}
        nodes.append(_build(f"nodes[{idx}]", NodeModel, links=links, **arrays))
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
    # mean and std stored as floats: scenario_to_document writes what is stored
    floats = {key: float(law_doc[key]) for key in ("mean", "std") if key in law_doc}
    law = _build("sim.x0_law", X0Law, **{**law_doc, **floats})
    specs = tuple(
        _build(f"disturbances[{k}]", DisturbanceSpec, **sd)
        for k, sd in enumerate(doc.get("disturbances", []))
    )

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
        disturbances=specs,
        m_inv_blocks=None if m_inv_blocks is None else tuple(
            np.asarray(b, dtype=float) for b in m_inv_blocks
        ),
        K0_blocks=K0,
        minv_margin=minv_margin,
    )


def tuning_P_from_document(doc: dict, net: Network, P_file=None) -> np.ndarray:
    """The weighting P of a run, checked to be nN x nN, symmetric and
    positive semidefinite.

    Read from P_file when given, a YAML mapping {P: matrix}; else from the
    document's tuning section: its P, or laplacian_P(P0, ridge). A document
    with neither (a run tuned by M or M_inv, or by a tuned file) falls back
    to laplacian_P(I, ridge=0.01), the weighting of the built-in Chua
    experiment. A bad P is reported at "<P_file>: P", "tuning.P" or
    "tuning.P0".
    """
    if P_file is not None:
        with open(P_file, "r", encoding="utf-8") as fh:
            raw = _safe_load(fh.read(), str(P_file))
        tuning = _walk(raw, str(P_file), {"P": _matrix}, ("P",), prefix=f"{P_file}: ")
        where = f"{P_file}: P"
    else:
        tuning, where = doc.get("tuning", {}), "tuning.P"
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
    _build(where, require_psd, x=P, name="P")
    return P


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def _listify(arr) -> list:
    return np.asarray(arr, dtype=float).tolist()


# How a value of each check is written back; any other value as it is.
_WRITTEN_AS = {_edge: list, _vector: _listify, _amplitude: _listify}


def _kind_document(obj, common: dict, kinds: dict) -> dict:
    """The document of a disturbance or an x0 law: each key of common and of
    its kind's table that it sets."""
    doc = {}
    for key, check in _kind_table({"kind": obj.kind}, common, kinds).items():
        value = getattr(obj, key)
        if value is not None:
            doc[key] = _WRITTEN_AS[check](value) if check in _WRITTEN_AS else value
    return doc


def scenario_to_document(scenario: Scenario, include_m: bool = True) -> dict:
    """Re-serialize a Scenario into the document schema."""
    net = scenario.network
    doc: dict = {
        "plant": {"A": _listify(net.plant.A), "B": _listify(net.plant.B)},
        "nodes": [{key: _listify(getattr(node, key)) for key in _NODE} for node in net.nodes],
        "edges": [[i, j] for (i, j) in net.edges],
    }
    if net.edges:
        doc["links"] = {
            "overrides": [
                {"edge": [i, j], **{k: _listify(getattr(net.link(i, j), k)) for k in _MATRICES}}
                for (i, j) in net.edges
            ]
        }
    doc["sim"] = {
        "T": scenario.T,
        "dt": scenario.dt,
        "seed": scenario.seed,
        "x0_law": _kind_document(scenario.x0_law, _X0_LAW, _X0_LAWS),
    }
    if scenario.disturbances:
        doc["disturbances"] = [
            _kind_document(s, _DISTURBANCE, _DISTURBANCE_KINDS) for s in scenario.disturbances
        ]
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


# A tuned file's section. Each list but M_inv holds one number per M_inv block.
_TUNED = {
    "M_inv": _blocks, "minv_margin": _number, "node_lmi_margins": _list_of(_number),
    "closed_loop_abscissas": _list_of(_number), "mu_profile": _list_of(_positive),
    "mu_lo_uniform": _number, "decay_floor": _non_negative,
}


def load_tuned_m(path) -> tuple[tuple[np.ndarray, ...], float]:
    """Read back a tuned file: (M^-1 blocks, stacked-condition margin).

    The optional keys are checked too, each per-node list for one number
    per M^-1 block; a bad value raises at "<path>: tuned.<key>".
    """
    with open(path, "r", encoding="utf-8") as fh:
        raw = _safe_load(fh.read(), str(path))
    tuned_file = {"tuned": _keys(_TUNED, ("M_inv", "minv_margin"))}
    tuned = _walk(raw, str(path), tuned_file, ("tuned",), prefix=f"{path}: ")["tuned"]
    blocks = tuned["M_inv"]
    for key, value in tuned.items():
        if key != "M_inv" and isinstance(value, list) and len(value) != len(blocks):
            raise _fail(
                f"expected {len(blocks)} numbers, one per M_inv block", f"{path}: tuned.{key}"
            )
    return tuple(np.array(b, dtype=float) for b in blocks), float(tuned["minv_margin"])


def bundled_chua_text() -> str:
    """The packaged executable form of the five-node Chua experiment."""
    return resources.files("menf").joinpath("data/chua.scenario").read_text("utf-8")
