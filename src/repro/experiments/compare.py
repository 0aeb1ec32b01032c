"""Structured comparison of two saved result files (``repro compare``).

Reproduction work constantly asks "is this re-run the same experiment,
and if not, how far apart are the curves?".  This module answers both
questions from the artifacts alone:

* **bit identity** -- the strongest verdict, a byte comparison of the
  two files.  The pipeline guarantees identical runs serialise
  identically (at any ``--jobs N``, with or without a workspace), so
  two files from the same seed/config either match exactly or something
  real changed.
* **provenance** -- the deterministic header embedded by
  :func:`~repro.experiments.results_io.save_results` (seed, backend,
  acceleration, scenario/config hashes).  A mismatch here explains a
  byte difference before any numbers are compared.
* **per-scheme PSNR deltas** -- for sweep and Fig. 3 files, the
  numeric distance between the curves, per scheme and sweep point.

The CLI surfaces this as ``repro compare A B [--fail-on-diff]``; the
job service's smoke test uses it to diff an HTTP-fetched result against
a direct CLI run.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.utils.errors import ConfigurationError

#: Provenance fields that must agree for two runs to claim the same
#: deterministic identity (compared only when both files carry them).
PROVENANCE_KEYS = ("seed", "backend", "acceleration", "scenario_hash",
                   "config_hash")


@dataclass(frozen=True)
class SchemeDelta:
    """Per-point mean-PSNR distance of one scheme between two files.

    Attributes
    ----------
    scheme:
        Scheme name (present in both files).
    deltas:
        ``mean_psnr(B) - mean_psnr(A)`` in dB per sweep point, in sweep
        order (one entry for Fig. 3 files, which have no sweep axis).
    """

    scheme: str
    deltas: Tuple[float, ...]

    @property
    def max_abs(self) -> float:
        """The largest absolute per-point delta, 0.0 when empty."""
        return max((abs(d) for d in self.deltas), default=0.0)


@dataclass(frozen=True)
class ComparisonReport:
    """Outcome of :func:`compare_results` (see module docstring)."""

    path_a: str
    path_b: str
    bit_identical: bool
    kind_a: Optional[str]
    kind_b: Optional[str]
    provenance_a: Dict[str, object]
    provenance_b: Dict[str, object]
    provenance_mismatches: Tuple[str, ...]
    scheme_deltas: Tuple[SchemeDelta, ...] = ()
    only_in_a: Tuple[str, ...] = ()
    only_in_b: Tuple[str, ...] = ()
    notes: Tuple[str, ...] = field(default=())

    @property
    def provenance_agrees(self) -> bool:
        """Whether every shared deterministic provenance field matches."""
        return not self.provenance_mismatches

    @property
    def max_abs_delta(self) -> float:
        """Largest absolute mean-PSNR delta across schemes and points."""
        return max((d.max_abs for d in self.scheme_deltas), default=0.0)

    def to_dict(self) -> dict:
        """JSON-compatible form of the report."""
        return {
            "path_a": self.path_a,
            "path_b": self.path_b,
            "bit_identical": self.bit_identical,
            "kind_a": self.kind_a,
            "kind_b": self.kind_b,
            "provenance_agrees": self.provenance_agrees,
            "provenance_mismatches": list(self.provenance_mismatches),
            "max_abs_delta_db": self.max_abs_delta,
            "scheme_deltas": {d.scheme: list(d.deltas)
                              for d in self.scheme_deltas},
            "only_in_a": list(self.only_in_a),
            "only_in_b": list(self.only_in_b),
            "notes": list(self.notes),
        }

    def format(self) -> str:
        """Human-readable multi-line report."""
        lines = [f"A: {self.path_a}",
                 f"B: {self.path_b}",
                 f"bit-identical  : {'yes' if self.bit_identical else 'no'}"]
        if self.bit_identical:
            return "\n".join(lines)
        prov = "match" if self.provenance_agrees else "MISMATCH"
        lines.append(f"provenance     : {prov}")
        for key in self.provenance_mismatches:
            lines.append(f"  {key}: {self.provenance_a.get(key)!r} != "
                         f"{self.provenance_b.get(key)!r}")
        if self.kind_a != self.kind_b:
            lines.append(f"result kinds   : {self.kind_a!r} vs {self.kind_b!r} "
                         f"(numeric comparison skipped)")
        for delta in self.scheme_deltas:
            rendered = ", ".join(f"{d:+.4f}" for d in delta.deltas)
            lines.append(f"  {delta.scheme}: max |delta| "
                         f"{delta.max_abs:.4f} dB  [{rendered}]")
        if self.only_in_a:
            lines.append("only in A      : " + ", ".join(self.only_in_a))
        if self.only_in_b:
            lines.append("only in B      : " + ", ".join(self.only_in_b))
        for note in self.notes:
            lines.append(f"note           : {note}")
        return "\n".join(lines)


def _load_payload(path: Path) -> dict:
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigurationError(f"cannot read result file {path}: {exc}") \
            from exc
    except ValueError as exc:
        raise ConfigurationError(f"{path} is not valid JSON: {exc}") from exc


def _scheme_curves(payload: dict) -> Dict[str, List[float]]:
    """``{scheme: per-point mean PSNR}`` of one loaded payload.

    Sweep files contribute one value per sweep point; Fig. 3 files
    contribute the mean over the row's per-user PSNR means (a single
    point).  Other kinds (e.g. convergence traces) have no PSNR curve
    and return empty.
    """
    kind = payload.get("kind")
    if kind == "sweep":
        return {scheme: [s["mean_psnr"]["mean"] for s in summaries]
                for scheme, summaries in payload.get("summaries", {}).items()}
    if kind == "fig3":
        curves: Dict[str, List[float]] = {}
        for row in payload.get("rows", []):
            per_user = [ci["mean"] for ci in row["per_user_psnr"].values()]
            if per_user:
                curves[row["scheme"]] = [sum(per_user) / len(per_user)]
        return curves
    return {}


def compare_results(path_a: Union[str, Path],
                    path_b: Union[str, Path]) -> ComparisonReport:
    """Compare two files written by ``save_results`` (module docstring).

    Raises
    ------
    ConfigurationError
        When either file is missing or not parseable JSON.
    """
    path_a, path_b = Path(path_a), Path(path_b)
    bytes_a = path_a.read_bytes() if path_a.exists() else None
    bytes_b = path_b.read_bytes() if path_b.exists() else None
    if bytes_a is None:
        raise ConfigurationError(f"result file {path_a} does not exist")
    if bytes_b is None:
        raise ConfigurationError(f"result file {path_b} does not exist")
    payload_a = _load_payload(path_a)
    payload_b = _load_payload(path_b)
    prov_a = dict(payload_a.get("provenance", {}))
    prov_b = dict(payload_b.get("provenance", {}))
    mismatches = tuple(
        key for key in PROVENANCE_KEYS
        if key in prov_a and key in prov_b and prov_a[key] != prov_b[key])
    notes: List[str] = []
    if not prov_a or not prov_b:
        notes.append("one or both files carry no provenance header")
    curves_a = _scheme_curves(payload_a)
    curves_b = _scheme_curves(payload_b)
    if payload_a.get("kind") != payload_b.get("kind"):
        # A sweep curve and a fig3 point are not comparable numbers;
        # report the kind clash (format() says so) instead of deltas.
        curves_a, curves_b = {}, {}
    shared = sorted(set(curves_a) & set(curves_b))
    deltas = []
    for scheme in shared:
        a, b = curves_a[scheme], curves_b[scheme]
        if len(a) != len(b):
            notes.append(f"scheme {scheme!r} has {len(a)} point(s) in A "
                         f"but {len(b)} in B; comparing the overlap")
        deltas.append(SchemeDelta(
            scheme=scheme,
            deltas=tuple(vb - va for va, vb in zip(a, b))))
    return ComparisonReport(
        path_a=str(path_a),
        path_b=str(path_b),
        bit_identical=bytes_a == bytes_b,
        kind_a=payload_a.get("kind"),
        kind_b=payload_b.get("kind"),
        provenance_a=prov_a,
        provenance_b=prov_b,
        provenance_mismatches=mismatches,
        scheme_deltas=tuple(deltas),
        only_in_a=tuple(sorted(set(curves_a) - set(curves_b))),
        only_in_b=tuple(sorted(set(curves_b) - set(curves_a))),
        notes=tuple(notes),
    )
