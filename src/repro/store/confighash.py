"""Deterministic content hashing of scenario configurations.

Result provenance, checkpoint fingerprints, and the executors'
per-scenario solver-cache scopes key on *configuration identity*, so
the identity function must be rock solid: the same config
must hash identically in every process (serial parent, ``--jobs N``
pool workers, a rerun next month on another machine), and any change to
a physical parameter must change the hash.  Python's builtin ``hash``
is salted per process and ``repr`` of containers is ordering-sensitive,
so neither qualifies; this module canonicalises a config into JSON with

* **stable float representation** -- every float is emitted as its
  ``float.hex()`` form, which round-trips bit-exactly, distinguishes
  ``-0.0`` from ``0.0``, and represents subnormals without precision
  loss (``repr`` would too, but hex makes the bit-exactness explicit
  and locale/version-proof);
* **numpy coercion** -- numpy scalars hash identically to the builtin
  value they wrap (``np.int64(8)`` vs ``8``), and arrays canonicalise
  by dtype, shape, and per-element values, so an ``np.linspace`` sweep
  cell hashes like its list-of-floats twin;
* **order independence** -- mappings canonicalise as key-sorted pairs
  (keys themselves canonicalised, so ``1`` and ``"1"`` stay distinct)
  and sets as sorted lists; insertion order never leaks into the hash.

Two hashes are derived from the canonical form:

* :func:`config_hash` covers every :class:`ScenarioConfig` field except
  ``fault_plan`` (an arbitrary stateful test object with no stable
  content identity; only its presence is recorded), plus the retired
  fields of :data:`RETIRED_CONFIG_FIELDS` at their one value.  Any
  physical, scheme, or seed change changes this hash -- it is the
  provenance identity embedded in saved results.
* :func:`scenario_hash` covers only the fields that feed
  :func:`repro.sim.build.build_scenario` (:data:`SCENARIO_BUILD_FIELDS`
  plus the topology), so replications, schemes, and seeds of one
  physical scenario share one build identity.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import fields, is_dataclass
from typing import Dict, Iterable, Tuple

import numpy as np

#: ScenarioConfig fields consumed by ``build_scenario`` (besides the
#: topology).  Everything else -- scheme, seed, horizon, ablation
#: switches, solver options -- varies freely under one build identity.
SCENARIO_BUILD_FIELDS: Tuple[str, ...] = (
    "n_channels",
    "p01",
    "p10",
    "channel_utilizations",
    "common_bandwidth_mbps",
    "licensed_bandwidth_mbps",
    "deadline_slots",
    # Registry identity: the generator that produced this scenario and
    # its build parameters (see repro.registry.scenarios).  Two
    # registered generators can therefore never alias one build
    # identity, even if their scalar fields happen to coincide.
    "generator",
    "generator_params",
)

#: ScenarioConfig fields excluded from :func:`config_hash` because they
#: have no stable content identity (arbitrary duck-typed objects).
EXCLUDED_CONFIG_FIELDS: Tuple[str, ...] = ("fault_plan",)

#: Removed ScenarioConfig switches, hashed as the constant every config
#: carried, so ``config_hash`` -- in results files, checkpoint headers
#: and the benchmark goldens -- is unchanged by their removal.
RETIRED_CONFIG_FIELDS: Dict[str, object] = {"memoize_q": True,
                                            "warm_start": False}


def canonical_value(value: object) -> object:
    """Recursively convert ``value`` into canonical JSON primitives.

    Raises
    ------
    TypeError
        For objects with no canonical form (file handles, lambdas, ...);
        hashing such a value silently would make the hash meaningless.
    """
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return {"__float__": value.hex()}
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return {"__float__": float(value).hex()}
    if isinstance(value, np.ndarray):
        return {
            "__ndarray__": str(value.dtype),
            "shape": list(value.shape),
            "data": [canonical_value(item) for item in value.ravel().tolist()],
        }
    if isinstance(value, (list, tuple)):
        return [canonical_value(item) for item in value]
    if isinstance(value, (set, frozenset)):
        items = [canonical_value(item) for item in value]
        return {"__set__": sorted(items, key=_sort_key)}
    if isinstance(value, dict):
        pairs = [[canonical_value(key), canonical_value(item)]
                 for key, item in value.items()]
        return {"__map__": sorted(pairs, key=lambda pair: _sort_key(pair[0]))}
    # Graphs (the interference graph) canonicalise as sorted nodes plus
    # sorted undirected edges; duck-typed (``nodes`` plus ``edges``), so
    # any graph type with the same vertices and edges hashes alike.
    if hasattr(value, "nodes") and hasattr(value, "edges"):
        nodes = sorted(canonical_value(node) for node in value.nodes)
        edges = sorted(
            sorted((canonical_value(a), canonical_value(b)))
            for a, b in value.edges)
        return {"__graph__": {"nodes": nodes, "edges": edges}}
    if is_dataclass(value) and not isinstance(value, type):
        body = {f.name: canonical_value(getattr(value, f.name))
                for f in fields(value)}
        return {"__dataclass__": type(value).__name__, "fields": body}
    raise TypeError(
        f"cannot canonicalise {type(value).__name__!r} for config hashing")


def _sort_key(canonical: object) -> str:
    """Total order over canonical values (for sets and mapping keys)."""
    if type(canonical) is int:
        return str(canonical)  # == json.dumps(canonical), much cheaper
    return json.dumps(canonical, sort_keys=True, separators=(",", ":"))


def canonical_json(value: object) -> str:
    """The canonical JSON text of ``value`` (stable across processes)."""
    return json.dumps(canonical_value(value), sort_keys=True,
                      separators=(",", ":"))


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def hash_value(value: object) -> str:
    """sha256 over the canonical JSON of an arbitrary supported value."""
    return _digest(canonical_json(value))


#: Attribute used to memoize the topology's canonical digest on the
#: topology object itself (safe: topologies are immutable after
#: ``build_topology`` and shared by every config of a sweep).
_TOPOLOGY_DIGEST_ATTR = "_repro_canonical_digest"


def topology_digest(topology: object) -> str:
    """Canonical digest of a topology, memoized on the instance.

    Canonicalising a city-scale topology (hundreds of stations,
    thousands of link margins) is the expensive part of scenario
    hashing; one sweep shares a single topology object across all its
    cells, so the digest is computed once per object per process.
    """
    cached = getattr(topology, _TOPOLOGY_DIGEST_ATTR, None)
    if cached is not None:
        return cached
    digest = hash_value(topology)
    try:
        object.__setattr__(topology, _TOPOLOGY_DIGEST_ATTR, digest)
    except (AttributeError, TypeError):
        pass  # slotted/odd objects just recompute
    return digest


def _described_fields(config: object, *, only: Iterable[str] = (),
                      exclude: Iterable[str] = ()) -> dict:
    only = tuple(only)
    exclude = set(exclude)
    described = {}
    for f in fields(config):
        if only and f.name not in only:
            continue
        if f.name in exclude:
            continue
        value = getattr(config, f.name)
        if f.name == "topology":
            described[f.name] = {"__digest__": topology_digest(value)}
        else:
            described[f.name] = canonical_value(value)
    return described


#: Instance attributes memoizing the two hashes on (frozen) configs.
_CONFIG_HASH_ATTR = "_repro_config_hash"
_SCENARIO_HASH_ATTR = "_repro_scenario_hash"


def config_hash(config: object) -> str:
    """Full-identity sha256 of a :class:`ScenarioConfig`.

    Covers every field except :data:`EXCLUDED_CONFIG_FIELDS`
    (``fault_plan`` contributes only whether it is set) plus
    :data:`RETIRED_CONFIG_FIELDS`.  Changing any
    physical parameter, scheme, seed, or ablation switch changes this
    hash; two equal configs hash identically in any process.
    """
    cached = getattr(config, _CONFIG_HASH_ATTR, None)
    if cached is not None:
        return cached
    described = _described_fields(config, exclude=EXCLUDED_CONFIG_FIELDS)
    for name in EXCLUDED_CONFIG_FIELDS:
        described[f"has_{name}"] = getattr(config, name, None) is not None
    for name, value in RETIRED_CONFIG_FIELDS.items():
        described[name] = canonical_value(value)
    digest = _digest(json.dumps(described, sort_keys=True,
                                separators=(",", ":")))
    _memoize(config, _CONFIG_HASH_ATTR, digest)
    return digest


def scenario_hash(config: object) -> str:
    """Build-identity sha256 of a config.

    Covers the topology plus :data:`SCENARIO_BUILD_FIELDS` only, so all
    replications, schemes, and ablation variants of one physical
    scenario -- which derive the same
    :class:`~repro.sim.build.BuiltScenario` -- share one hash.
    """
    cached = getattr(config, _SCENARIO_HASH_ATTR, None)
    if cached is not None:
        return cached
    described = _described_fields(
        config, only=SCENARIO_BUILD_FIELDS + ("topology",))
    digest = _digest(json.dumps(described, sort_keys=True,
                                separators=(",", ":")))
    _memoize(config, _SCENARIO_HASH_ATTR, digest)
    return digest


def _memoize(config: object, attr: str, digest: str) -> None:
    """Cache a digest on a (frozen) config instance, best-effort."""
    try:
        object.__setattr__(config, attr, digest)
    except (AttributeError, TypeError):
        pass
