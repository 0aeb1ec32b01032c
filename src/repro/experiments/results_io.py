"""Persistence of experiment results as JSON.

A reproduction repo lives or dies by being able to re-run an experiment
months later and diff it against the committed reference.  This module
serialises the experiment result types (sweeps, Fig. 3 rows, convergence
traces) to plain JSON and back, with enough metadata (package version,
parameters) to interpret the file standalone.

The CLI's ``--output`` flag writes these files; :func:`load_results`
round-trips them.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Union

import numpy as np

import repro
from repro.experiments.fig3 import Fig3Row
from repro.experiments.fig4 import Fig4aResult
from repro.obs.export import result_provenance
from repro.obs.logging import get_logger
from repro.sim.metrics import MetricsSummary
from repro.sim.runner import SweepResult
from repro.utils.errors import ConfigurationError
from repro.utils.fsio import atomic_write_text
from repro.utils.stats import ConfidenceInterval

logger = get_logger(__name__)

#: Schema version of the files written by this module.
FORMAT_VERSION = 1


def _ci_to_dict(ci: ConfidenceInterval) -> dict:
    return {"mean": ci.mean, "half_width": ci.half_width,
            "confidence": ci.confidence, "n_samples": ci.n_samples}


def _ci_from_dict(data: dict) -> ConfidenceInterval:
    return ConfidenceInterval(
        mean=float(data["mean"]), half_width=float(data["half_width"]),
        confidence=float(data["confidence"]), n_samples=int(data["n_samples"]))


def _summary_to_dict(summary: MetricsSummary) -> dict:
    return {
        "mean_psnr": _ci_to_dict(summary.mean_psnr),
        "per_user_psnr": {str(uid): _ci_to_dict(ci)
                          for uid, ci in summary.per_user_psnr.items()},
        "upper_bound_psnr": _ci_to_dict(summary.upper_bound_psnr),
        "fairness": _ci_to_dict(summary.fairness),
        "mean_collision_rate": _ci_to_dict(summary.mean_collision_rate),
    }


def _summary_from_dict(data: dict) -> MetricsSummary:
    return MetricsSummary(
        mean_psnr=_ci_from_dict(data["mean_psnr"]),
        per_user_psnr={int(uid): _ci_from_dict(ci)
                       for uid, ci in data["per_user_psnr"].items()},
        upper_bound_psnr=_ci_from_dict(data["upper_bound_psnr"]),
        fairness=_ci_from_dict(data["fairness"]),
        mean_collision_rate=_ci_from_dict(data["mean_collision_rate"]),
    )


def sweep_to_dict(result: SweepResult) -> dict:
    """Serialise a :class:`SweepResult` to JSON-compatible primitives."""
    return {
        "format_version": FORMAT_VERSION,
        "repro_version": repro.__version__,
        "kind": "sweep",
        "parameter": result.parameter,
        "values": [list(v) if isinstance(v, (tuple, list)) else v
                   for v in result.values],
        "summaries": {
            scheme: [_summary_to_dict(summary) for summary in summaries]
            for scheme, summaries in result.summaries.items()
        },
    }


def sweep_from_dict(data: dict) -> SweepResult:
    """Deserialise a sweep written by :func:`sweep_to_dict`."""
    _check_kind(data, "sweep")
    result = SweepResult(
        parameter=data["parameter"],
        values=[tuple(v) if isinstance(v, list) else v for v in data["values"]])
    for scheme, summaries in data["summaries"].items():
        result.summaries[scheme] = [_summary_from_dict(s) for s in summaries]
    return result


def fig3_to_dict(rows: List[Fig3Row]) -> dict:
    """Serialise Fig. 3 rows."""
    return {
        "format_version": FORMAT_VERSION,
        "repro_version": repro.__version__,
        "kind": "fig3",
        "rows": [
            {
                "scheme": row.scheme,
                "per_user_psnr": {str(uid): _ci_to_dict(ci)
                                  for uid, ci in row.per_user_psnr.items()},
                "fairness": _ci_to_dict(row.fairness),
            }
            for row in rows
        ],
    }


def fig3_from_dict(data: dict) -> List[Fig3Row]:
    """Deserialise Fig. 3 rows."""
    _check_kind(data, "fig3")
    return [
        Fig3Row(
            scheme=row["scheme"],
            per_user_psnr={int(uid): _ci_from_dict(ci)
                           for uid, ci in row["per_user_psnr"].items()},
            fairness=_ci_from_dict(row["fairness"]),
        )
        for row in data["rows"]
    ]


def trace_to_dict(result: Fig4aResult) -> dict:
    """Serialise a Fig. 4(a) convergence trace."""
    return {
        "format_version": FORMAT_VERSION,
        "repro_version": repro.__version__,
        "kind": "trace",
        "stations": list(result.stations),
        "iterations": result.iterations,
        "converged": result.converged,
        "trace": np.asarray(result.trace).tolist(),
    }


def trace_from_dict(data: dict) -> Fig4aResult:
    """Deserialise a Fig. 4(a) trace."""
    _check_kind(data, "trace")
    return Fig4aResult(
        trace=np.asarray(data["trace"], dtype=float),
        stations=[int(s) for s in data["stations"]],
        iterations=int(data["iterations"]),
        converged=bool(data["converged"]),
    )


def save_results(obj: Union[SweepResult, List[Fig3Row], Fig4aResult],
                 path: Union[str, Path], *,
                 provenance: Union[dict, None] = None) -> Path:
    """Serialise any supported experiment result to a JSON file.

    The write is **atomic**: the payload is serialised and fully written
    to a temporary file in the destination directory, fsynced, and only
    then moved over ``path`` with :func:`os.replace`.  An interrupted or
    failed save therefore never corrupts an existing results file --
    either the old contents survive intact or the new file is complete.

    Non-finite floats (NaN/inf) are rejected at serialisation time with a
    :class:`ConfigurationError`: Python's ``json`` would otherwise emit
    bare ``NaN`` tokens that standard JSON parsers (and this module's
    loader) cannot read back.

    Every file carries a ``provenance`` header -- seed, backend
    (always ``batched``), acceleration flag, and (when the caller passes the
    run's config to :func:`repro.obs.export.result_provenance`) the
    ``scenario_hash`` / ``config_hash`` pair tying the result to its
    cached scenario artifact -- so an archived figure is reproducible
    from the artifact alone and :func:`read_provenance` can locate the
    exact ``scenarios/<hash>.json`` it was computed against.  Omitted,
    the header still records backend and acceleration (with
    ``seed: null``).  Only deterministic values belong here: the header
    must not break byte-identity between identical runs.
    """
    if isinstance(obj, SweepResult):
        payload = sweep_to_dict(obj)
    elif isinstance(obj, Fig4aResult):
        payload = trace_to_dict(obj)
    elif isinstance(obj, list) and obj and isinstance(obj[0], Fig3Row):
        payload = fig3_to_dict(obj)
    else:
        raise ConfigurationError(
            f"unsupported result type {type(obj).__name__}")
    payload["provenance"] = (dict(provenance) if provenance is not None
                             else result_provenance())
    try:
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise ConfigurationError(
            f"result contains non-finite floats and cannot be saved as "
            f"portable JSON: {exc}") from exc
    path = atomic_write_text(path, text)
    logger.info("saved %s results to %s", payload["kind"], path)
    return path


def read_provenance(path: Union[str, Path]) -> dict:
    """The ``provenance`` header of a saved results file.

    Empty dict for files written before the header existed.
    """
    data = json.loads(Path(path).read_text())
    return dict(data.get("provenance", {}))


def load_results(path: Union[str, Path]):
    """Load a result file written by :func:`save_results`."""
    data = json.loads(Path(path).read_text())
    kind = data.get("kind")
    if kind == "sweep":
        return sweep_from_dict(data)
    if kind == "fig3":
        return fig3_from_dict(data)
    if kind == "trace":
        return trace_from_dict(data)
    raise ConfigurationError(f"unknown result kind {kind!r} in {path}")


def _check_kind(data: dict, expected: str) -> None:
    if data.get("kind") != expected:
        raise ConfigurationError(
            f"expected a {expected!r} result file, got {data.get('kind')!r}")
    version = data.get("format_version")
    if version != FORMAT_VERSION:
        raise ConfigurationError(
            f"unsupported result format version {version!r} "
            f"(this build reads {FORMAT_VERSION})")
