"""Managed on-disk workspace for experiment runs.

A :class:`FileWorkspace` gives every run a predictable home::

    <root>/
      index.json      -- run registry (atomic, human-readable)
      results/        -- figure result JSON files
      checkpoints/    -- sweep checkpoints (resume state)
      traces/         -- execution traces (--trace)
      manifests/      -- run manifests (--manifest)
      jobs/           -- job-service records and per-job logs (repro serve)

Every write in the workspace goes through
:func:`repro.utils.fsio.atomic_write_text`, so an interrupted run never
leaves a half-written index or record behind.

The index maps run names to their files; :meth:`FileWorkspace.gc` prunes
the entries whose files have all vanished, but never the run of an
active job record (queued/building/running, see ``jobs/``).  The CLI
surfaces this as ``repro workspace list|inspect|gc``.  Workspaces
written by older versions may still hold a ``scenarios/`` directory and
``scenario_hashes`` fields; both are ignored.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Union

from repro.obs.logging import get_logger
from repro.utils.errors import ConfigurationError
from repro.utils.fsio import atomic_write_text

logger = get_logger(__name__)

#: Name of the JSON run registry at the workspace root.
INDEX_NAME = "index.json"

#: Schema version of the index file.
INDEX_FORMAT_VERSION = 1

#: Environment variable naming the default workspace directory of
#: ``repro workspace`` and ``repro serve``.
ENV_WORKSPACE = "REPRO_WORKSPACE"

#: Managed subdirectories, created eagerly so every path helper works.
SUBDIRS = ("results", "checkpoints", "traces", "manifests", "jobs")

#: Job-record states that still need their run: a job in one of these
#: states has not produced (or finished producing) its results, so gc
#: must not prune its run entry.
ACTIVE_JOB_STATES = frozenset({"queued", "building", "running"})

#: Index-entry fields accumulated as lists across repeated registrations
#: (a figure run may save several result files into one entry).
_MERGED_FIELDS = ("results",)


class FileWorkspace:
    """One managed experiment directory (layout in the module docstring)."""

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        for sub in SUBDIRS:
            (self.root / sub).mkdir(parents=True, exist_ok=True)

    def __repr__(self) -> str:
        return f"FileWorkspace({str(self.root)!r})"

    # ------------------------------------------------------------------
    # Path helpers
    # ------------------------------------------------------------------
    @property
    def index_path(self) -> Path:
        """The run registry file."""
        return self.root / INDEX_NAME

    def results_path(self, name: str) -> Path:
        """A result file under ``results/``."""
        return self.root / "results" / name

    def checkpoint_path(self, name: str) -> Path:
        """A sweep checkpoint under ``checkpoints/``."""
        return self.root / "checkpoints" / name

    def trace_path(self, name: str) -> Path:
        """A trace file under ``traces/``."""
        return self.root / "traces" / name

    def manifest_path(self, name: str) -> Path:
        """A manifest file under ``manifests/``."""
        return self.root / "manifests" / name

    def job_path(self, job_id: str) -> Path:
        """The persistent record of one service job under ``jobs/``."""
        return self.root / "jobs" / f"{job_id}.json"

    def _relative(self, path: Union[str, Path]) -> str:
        """Index representation of a path: relative when inside the root.

        Outside-root paths are stored absolute: a relative form would be
        cwd-dependent and :meth:`_resolve` would wrongly anchor it at the
        workspace root.
        """
        path = Path(path)
        try:
            return str(path.resolve().relative_to(self.root.resolve()))
        except ValueError:
            return str(path.resolve())

    def _resolve(self, recorded: str) -> Path:
        """Inverse of :meth:`_relative`."""
        path = Path(recorded)
        return path if path.is_absolute() else self.root / path

    # ------------------------------------------------------------------
    # Run registry
    # ------------------------------------------------------------------
    def _read_index(self) -> dict:
        try:
            index = json.loads(self.index_path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            return {"format_version": INDEX_FORMAT_VERSION, "runs": {}}
        except ValueError:
            logger.warning("workspace: index %s is unreadable; starting a "
                           "fresh registry", self.index_path)
            return {"format_version": INDEX_FORMAT_VERSION, "runs": {}}
        index.setdefault("format_version", INDEX_FORMAT_VERSION)
        index.setdefault("runs", {})
        return index

    def _write_index(self, index: dict) -> None:
        atomic_write_text(
            self.index_path,
            json.dumps(index, indent=2, sort_keys=True) + "\n")

    def register_run(self, name: str, **fields: object) -> dict:
        """Create or update the index entry for run ``name``.

        ``None`` values are skipped; :data:`_MERGED_FIELDS` accumulate
        (order-preserving, deduplicated) across calls; path-valued
        fields are stored relative to the root when inside it.  Returns
        the merged entry.
        """
        index = self._read_index()
        entry = index["runs"].setdefault(name, {})
        for key, value in fields.items():
            if value is None:
                continue
            if key in _MERGED_FIELDS:
                merged = list(entry.get(key, []))
                items = value if isinstance(value, (list, tuple)) else [value]
                for item in items:
                    item = (self._relative(item) if key == "results"
                            else str(item))
                    if item not in merged:
                        merged.append(item)
                entry[key] = merged
            elif key in ("checkpoint", "manifest", "trace"):
                entry[key] = self._relative(value)
            else:
                entry[key] = value
        self._write_index(index)
        return entry

    def entries(self) -> Dict[str, dict]:
        """All registered runs, ``{name: entry}``."""
        return self._read_index()["runs"]

    def inspect(self, name: str) -> dict:
        """One run's entry plus the on-disk status of every file it names.

        Raises
        ------
        ConfigurationError
            For an unknown run name (listing the known ones).
        """
        runs = self.entries()
        if name not in runs:
            known = ", ".join(sorted(runs)) or "<none>"
            raise ConfigurationError(
                f"unknown run {name!r} in workspace {self.root} "
                f"(registered: {known})")
        entry = runs[name]
        files: Dict[str, bool] = {}
        for key in ("checkpoint", "manifest", "trace"):
            if key in entry:
                files[entry[key]] = self._resolve(entry[key]).exists()
        for recorded in entry.get("results", []):
            files[recorded] = self._resolve(recorded).exists()
        return {"name": name, "entry": entry, "files": files}

    # ------------------------------------------------------------------
    # Job records
    # ------------------------------------------------------------------
    def save_job(self, record: dict) -> Path:
        """Persist one job record (atomic; ``record["id"]`` names it).

        The job service (:mod:`repro.serve.jobs`) writes a record on
        every state transition, so a crashed server can be restarted
        against the same workspace and pick its jobs back up.
        """
        job_id = record.get("id")
        if not job_id:
            raise ConfigurationError("job record must carry an 'id' field")
        path = self.job_path(str(job_id))
        atomic_write_text(
            path, json.dumps(record, indent=2, sort_keys=True) + "\n")
        return path

    def job_records(self) -> Dict[str, dict]:
        """All persisted job records, ``{job id: record}``.

        Unreadable files (torn by a crash before atomic writes existed,
        or foreign junk in ``jobs/``) are skipped with a warning rather
        than wedging every job listing.
        """
        records: Dict[str, dict] = {}
        for path in sorted((self.root / "jobs").glob("*.json")):
            try:
                record = json.loads(path.read_text(encoding="utf-8"))
            except (OSError, ValueError) as exc:
                logger.warning("workspace: skipping unreadable job record "
                               "%s (%s)", path.name, exc)
                continue
            if isinstance(record, dict) and record.get("id"):
                records[str(record["id"])] = record
        return records

    # ------------------------------------------------------------------
    # Garbage collection
    # ------------------------------------------------------------------
    def gc(self, *, dry_run: bool = False) -> dict:
        """Prune run entries whose files have all been deleted.

        A run entry is stale when its checkpoint and every result file
        it lists are gone.  The run of an active (queued/building/
        running) job record is never pruned: a queued job has not
        written its checkpoint yet, and the service still needs the
        entry it is about to fill.  With ``dry_run`` nothing is
        deleted; the report shows what would happen.
        """
        index = self._read_index()
        active_jobs = sorted(
            job_id for job_id, record in self.job_records().items()
            if record.get("state") in ACTIVE_JOB_STATES)
        pruned_runs: List[str] = []
        for name in sorted(index["runs"]):
            entry = index["runs"][name]
            checkpoint = entry.get("checkpoint")
            alive = ((checkpoint is not None
                      and self._resolve(checkpoint).exists())
                     or any(self._resolve(recorded).exists()
                            for recorded in entry.get("results", [])))
            if not alive and name not in active_jobs:
                pruned_runs.append(name)
        if not dry_run:
            for name in pruned_runs:
                del index["runs"][name]
            self._write_index(index)
        logger.info("workspace gc%s: %d run entr%s pruned",
                    " (dry run)" if dry_run else "", len(pruned_runs),
                    "y" if len(pruned_runs) == 1 else "ies")
        return {
            "dry_run": dry_run,
            "pruned_runs": pruned_runs,
            "active_jobs": active_jobs,
        }
