"""Exporters: Prometheus text dump, run manifests, result provenance.

Three export surfaces, split by determinism:

* :func:`prometheus_text` / :func:`write_metrics` -- render a
  :class:`~repro.obs.metrics.MetricsRegistry` in the Prometheus text
  exposition format for ``--metrics PATH``.
* :func:`result_provenance` -- the *deterministic* reproducibility
  triple (seed, backend, acceleration flag) that
  :func:`repro.experiments.results_io.save_results` embeds in saved
  results so an archived figure can be regenerated from the artifact
  alone.  Only values identical across identical runs may go here:
  anything else would break the byte-identity guarantee on results.
* :func:`run_manifest` / :func:`write_manifest` -- the full provenance
  record (config fingerprint, package version, interpreter, wall clock)
  written as a *sidecar* file next to results and traces.  The wall
  clock makes it inherently nondeterministic, which is exactly why it
  lives outside the results payload.
"""

from __future__ import annotations

import hashlib
import json
import platform
import sys
import time
from dataclasses import fields, is_dataclass
from pathlib import Path
from typing import IO, Mapping, Optional, Union

from repro.obs.metrics import MetricsRegistry, split_sample_name
from repro.utils.fsio import atomic_write_text

_PRIMITIVES = (bool, int, float, str, type(None))


def _describe_field(value: object) -> object:
    """A JSON-stable description of one config field for fingerprinting."""
    if isinstance(value, _PRIMITIVES):
        return value
    n_users = getattr(value, "n_users", None)
    n_fbss = getattr(value, "n_fbss", None)
    if n_users is not None and n_fbss is not None:
        graph = getattr(value, "interference_graph", None)
        edges = (sorted(tuple(sorted(edge)) for edge in graph.edges)
                 if graph is not None else [])
        return {"n_users": int(n_users), "n_fbss": int(n_fbss),
                "interference_edges": edges}
    return type(value).__name__


def config_fingerprint(config: object) -> str:
    """Deterministic sha256 over a scenario config's field values.

    Primitive fields are hashed as-is; the topology is summarized by
    its size and interference edges; anything else (e.g. a fault plan)
    contributes only its type name.  Two configs that would drive the
    engine identically therefore hash identically across processes and
    sessions.
    """
    if is_dataclass(config):
        described = {f.name: _describe_field(getattr(config, f.name))
                     for f in fields(config)}
    else:
        described = {"repr": repr(config)}
    payload = json.dumps(described, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def result_provenance(*, seed: Optional[int] = None,
                      config: Optional[object] = None) -> dict:
    """The deterministic provenance record embedded in saved results.

    ``backend``/``acceleration`` name the slot-phase implementation; the
    engine has one (the batched backend), so both are constant, kept so
    result files stay byte-identical to earlier ones.  Passing the
    run's base ``config`` additionally records its
    :func:`~repro.store.confighash.scenario_hash` and
    :func:`~repro.store.confighash.config_hash`, tying the result file
    to the cached scenario artifact it was computed against (both are
    pure functions of the config, so they never break byte-identity
    between identical runs -- store on or off).
    """
    provenance = {"seed": seed, "backend": "batched", "acceleration": True}
    if config is not None:
        from repro.store.confighash import config_hash, scenario_hash

        try:
            provenance["scenario_hash"] = scenario_hash(config)
            provenance["config_hash"] = config_hash(config)
        except TypeError:
            # A config with no content identity (test doubles) simply
            # omits the hashes, like results saved without a config.
            pass
    return provenance


def run_manifest(*, command: str, config: Optional[object] = None,
                 seed: Optional[int] = None,
                 extra: Optional[Mapping[str, object]] = None) -> dict:
    """Full run-provenance record (nondeterministic: includes wall clock)."""
    from repro import __version__

    manifest = {
        "command": command,
        "repro_version": __version__,
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "wall_clock": time.time(),
        "config_fingerprint": (config_fingerprint(config)
                               if config is not None else None),
    }
    manifest.update(result_provenance(seed=seed, config=config))
    if extra:
        manifest.update(extra)
    return manifest


def write_manifest(path: str, manifest: Mapping[str, object]) -> None:
    """Write a manifest as pretty-printed JSON, atomically.

    Same discipline as ``results_io.save_results`` (via
    :func:`repro.utils.fsio.atomic_write_text`): a crash mid-write can
    never leave a torn ``*.manifest.json`` sidecar next to valid
    results -- either the old manifest survives or the new one is
    complete.
    """
    text = json.dumps(manifest, indent=2, sort_keys=True)
    atomic_write_text(Path(path), text)


def read_manifest(path: str) -> dict:
    """Load a manifest written by :func:`write_manifest`."""
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _sample(name: str, label_body: str, extra_label: str, value: float) -> str:
    labels = ",".join(part for part in (label_body, extra_label) if part)
    rendered = f"{{{labels}}}" if labels else ""
    return f"{name}{rendered} {_format_value(value)}"


def _format_value(value: float) -> str:
    if value == int(value):
        return str(int(value))
    return repr(value)


def prometheus_text(registry: MetricsRegistry) -> str:
    """Render a registry in the Prometheus text exposition format.

    Counters and gauges emit one sample per label set; histograms emit
    cumulative ``_bucket{le=...}`` samples plus ``_sum`` / ``_count``.
    Output is sorted, so identical registries render identically.
    """
    lines = []
    typed = set()

    def type_line(name: str, kind: str) -> None:
        if name not in typed:
            typed.add(name)
            lines.append(f"# TYPE {name} {kind}")

    for key in sorted(registry.counters()):
        name, label_body = split_sample_name(key)
        type_line(name, "counter")
        lines.append(_sample(name, label_body, "", registry.counters()[key]))
    for key in sorted(registry.gauges()):
        name, label_body = split_sample_name(key)
        type_line(name, "gauge")
        lines.append(_sample(name, label_body, "", registry.gauges()[key]))
    for key in sorted(registry.histograms()):
        histogram = registry.histograms()[key]
        name, label_body = split_sample_name(key)
        type_line(name, "histogram")
        cumulative = 0
        for bound, count in zip(histogram.buckets, histogram.counts):
            cumulative += count
            lines.append(_sample(f"{name}_bucket", label_body,
                                 f'le="{_format_value(bound)}"', cumulative))
        lines.append(_sample(f"{name}_bucket", label_body, 'le="+Inf"',
                             histogram.count))
        lines.append(_sample(f"{name}_sum", label_body, "", histogram.sum))
        lines.append(_sample(f"{name}_count", label_body, "", histogram.count))
    return "\n".join(lines) + ("\n" if lines else "")


def write_metrics(path_or_stream: Union[str, IO[str]],
                  registry: MetricsRegistry) -> None:
    """Write :func:`prometheus_text` to a path or open stream."""
    text = prometheus_text(registry)
    if hasattr(path_or_stream, "write"):
        path_or_stream.write(text)
    else:
        with open(path_or_stream, "w", encoding="utf-8") as handle:
            handle.write(text)


def write_metrics_snapshot(path: Union[str, Path],
                           registry: MetricsRegistry) -> None:
    """Write a registry's :meth:`~MetricsRegistry.snapshot` as JSON.

    The machine-readable sibling of :func:`write_metrics`: a snapshot
    file can be folded back into another registry with
    :meth:`MetricsRegistry.absorb` -- the same operation the executor
    uses for worker registries -- whereas the Prometheus text form is
    one-way.  The job service's ``/metrics`` endpoint relies on this to
    aggregate per-job metrics without a text-format parser.  Written
    atomically, like every other workspace artifact.
    """
    text = json.dumps(registry.snapshot(), indent=2, sort_keys=True)
    atomic_write_text(Path(path), text)


def read_metrics_snapshot(path: Union[str, Path]) -> dict:
    """Load a snapshot written by :func:`write_metrics_snapshot`."""
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)
