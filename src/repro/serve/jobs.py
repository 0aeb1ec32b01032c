"""Job manager: a persistent queue of CLI runs over one workspace.

The service's unit of work is a **job**: one figure sweep or simulate
campaign, described by a small JSON spec and executed as a child
process that runs ``repro.cli.main`` on the job's argv against the
service's workspace, exactly as ``python -m repro ...`` would.  Running
jobs as CLI processes (rather than in-process threads) is the load-
bearing design decision:

* **byte identity for free** -- a job produces exactly the bytes the
  same CLI invocation would, because it *is* that CLI invocation;
* **isolation** -- every job runs in a fresh process that never ran
  another job, so the CLI's process-global machinery (the shutdown
  coordinator's signal handlers, the metrics registry, the solver
  caches) stays per-job instead of fighting over one server process;
* **two-stage cancel** -- SIGTERM reuses the CLI's
  :class:`~repro.exec.supervisor.ShutdownCoordinator` contract verbatim:
  the first signal drains in-flight cells to the checkpoint (exit 4),
  a second hard-aborts (exit 6);
* **resume** -- an interrupted sweep job restarts from its per-job
  checkpoint, so a crashed server loses at most in-flight cells.

**Spares.**  Interpreter start-up and ``import repro.cli`` cost more
than a small job's own work, so each worker keeps one *spare*: a
``python -m repro.jobchild`` process that has already imported the CLI
and waits on its stdin (:mod:`repro.jobchild`).  Taking a job hands the
spare its argv and output paths; the worker then starts the next spare,
so that import overlaps the running job.  The first spare starts when a
worker takes its first job, so an unstarted or idle manager runs no
process.  The handle is still a :class:`subprocess.Popen` leading its
own session, so cancel, stop, kill, :meth:`JobManager.recover`, the
exit codes and the record's ``pid`` are those of a plain child.

Lifecycle::

    queued -> building -> running -> succeeded | failed | cancelled
       ^___________________|  (interrupted jobs requeue on recover())

Every transition rewrites the job's record atomically under
``<workspace>/jobs/<id>.json`` (:meth:`FileWorkspace.save_job`), so the
queue survives a server crash: :meth:`JobManager.recover` -- run on
every start -- flips stale ``building``/``running`` records back to
``queued`` and re-enqueues them.

Deduplication hashes the *result-determining* spec fields only (command,
runs, gops, seed, scenario/scheme/args) -- never execution knobs like
``jobs`` or ``cell_timeout``, because results are bit-identical at any
worker count.  Submitting a spec whose hash matches a queued, running,
or succeeded job returns that job instead of a duplicate.
"""

from __future__ import annotations

import hashlib
import json
import os
import queue
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.exec.progress import parse_progress_line
from repro.exec.supervisor import (
    EXIT_DEADLINE,
    EXIT_FAILED_RUNS,
    EXIT_HARD_ABORT,
    EXIT_INTERRUPTED,
)
from repro.obs.export import read_metrics_snapshot
from repro.obs.logging import get_logger
from repro.obs.metrics import MetricsRegistry
from repro.store.workspace import ACTIVE_JOB_STATES, FileWorkspace

logger = get_logger(__name__)

#: Schema version of job records written by this module.
JOB_RECORD_VERSION = 1

#: Commands a job spec may name.  Sweep figures get per-job checkpoints
#: (and therefore resume); ``fig3`` and ``simulate`` are campaigns that
#: simply re-run in full after an interruption.
SWEEP_COMMANDS = ("fig4b", "fig4c", "fig6a", "fig6b", "fig6c")
ALLOWED_COMMANDS = SWEEP_COMMANDS + ("fig3", "simulate")

#: Terminal job states (no further transitions).
TERMINAL_STATES = frozenset({"succeeded", "failed", "cancelled"})

#: Spec fields that determine the result bytes and thus the dedup hash.
_HASHED_FIELDS = ("command", "runs", "gops", "seed", "scenario", "scheme",
                  "scenario_args")

#: An externally interrupted job requeues itself at most this many times
#: before being marked failed, so a persistently dying child can never
#: spin the queue forever.
MAX_AUTO_RESUMES = 5


class JobError(ValueError):
    """A job spec failed validation or a job id is unknown."""


def validate_spec(spec: dict) -> dict:
    """Validate and normalize a submitted job spec.

    Returns the normalized spec (defaults filled, unknown keys
    rejected); raises :class:`JobError` with an operator-readable
    message otherwise.  Scenario and scheme names are checked against
    the live registries, and ``simulate`` specs are additionally
    dry-built through the scenario registry so a bad ``scenario_args``
    key fails at submit time, not minutes later in a worker.
    """
    if not isinstance(spec, dict):
        raise JobError("job spec must be a JSON object")
    known = {"command", "runs", "gops", "seed", "scenario", "scheme",
             "scenario_args", "jobs", "cell_timeout", "deadline", "trace"}
    unknown = sorted(set(spec) - known)
    if unknown:
        raise JobError(f"unknown spec field(s): {', '.join(unknown)} "
                       f"(known: {', '.join(sorted(known))})")
    command = spec.get("command")
    if command not in ALLOWED_COMMANDS:
        raise JobError(f"command must be one of {', '.join(ALLOWED_COMMANDS)};"
                       f" got {command!r}")
    normalized = {"command": command}
    for field, default, minimum in (("runs", 10, 1), ("gops", 3, 1),
                                    ("jobs", 1, 1)):
        value = spec.get(field, default)
        if not isinstance(value, int) or isinstance(value, bool) \
                or value < minimum:
            raise JobError(f"{field} must be an integer >= {minimum}, "
                           f"got {value!r}")
        normalized[field] = value
    seed = spec.get("seed", 7)
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise JobError(f"seed must be an integer, got {seed!r}")
    normalized["seed"] = seed
    for field in ("cell_timeout", "deadline"):
        value = spec.get(field)
        if value is not None:
            if not isinstance(value, (int, float)) or value <= 0:
                raise JobError(f"{field} must be a positive number, "
                               f"got {value!r}")
            value = float(value)
        normalized[field] = value
    normalized["trace"] = bool(spec.get("trace", False))
    scenario = spec.get("scenario")
    scheme = spec.get("scheme")
    scenario_args = spec.get("scenario_args") or {}
    if command == "simulate":
        from repro.registry import scenario_registry, scheme_registry

        scenario = scenario or "single"
        scheme = scheme or "proposed-fast"
        if scenario not in scenario_registry().names():
            raise JobError(
                f"unknown scenario {scenario!r} "
                f"(registered: {', '.join(scenario_registry().names())})")
        if scheme not in scheme_registry().names():
            raise JobError(
                f"unknown scheme {scheme!r} "
                f"(registered: {', '.join(scheme_registry().names())})")
        if not isinstance(scenario_args, dict):
            raise JobError("scenario_args must be an object")
        try:
            scenario_registry().build(
                scenario, n_gops=normalized["gops"], seed=seed,
                scheme=scheme, **scenario_args)
        except Exception as exc:
            raise JobError(f"scenario {scenario!r} rejected its "
                           f"arguments: {exc}") from exc
        normalized["scenario"] = scenario
        normalized["scheme"] = scheme
        normalized["scenario_args"] = dict(scenario_args)
    else:
        if scenario or scheme or scenario_args:
            raise JobError("scenario/scheme/scenario_args are only valid "
                           "for the simulate command")
        normalized["scenario"] = None
        normalized["scheme"] = None
        normalized["scenario_args"] = {}
    return normalized


def spec_hash(spec: dict) -> str:
    """Dedup identity of a normalized spec (result-determining fields).

    Execution knobs (``jobs``, ``cell_timeout``, ``deadline``,
    ``trace``) are deliberately excluded: they change how fast a result
    arrives, never its bytes.
    """
    payload = {field: spec.get(field) for field in _HASHED_FIELDS}
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _kill_group(proc: subprocess.Popen) -> None:
    """SIGKILL a job child's process group (the child leads it).

    The group outlives its leader while orphaned pool workers remain,
    so it is signalled even when the child itself has already exited.
    """
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except OSError:
        pass


class JobManager:
    """Bounded worker pool draining a persistent job queue.

    Parameters
    ----------
    workspace:
        The managed workspace (directory path or
        :class:`FileWorkspace`) holding job records and every artifact
        the jobs produce.
    job_workers:
        Concurrent jobs (each job additionally parallelises internally
        via its spec's ``jobs`` field).
    python:
        Interpreter for job processes (defaults to
        ``sys.executable``; tests never need to override it).
    """

    def __init__(self, workspace: Union[str, Path, FileWorkspace], *,
                 job_workers: int = 2, python: Optional[str] = None) -> None:
        if not isinstance(workspace, FileWorkspace):
            workspace = FileWorkspace(workspace)
        self.workspace = workspace
        self.job_workers = max(1, int(job_workers))
        self.python = python or sys.executable
        self._lock = threading.RLock()
        self._queue: "queue.Queue[str]" = queue.Queue()
        self._procs: Dict[str, subprocess.Popen] = {}
        #: Each worker's idle spare, by worker index.
        self._spares: Dict[int, subprocess.Popen] = {}
        self._threads: List[threading.Thread] = []
        self._stopping = threading.Event()
        self._metrics = MetricsRegistry()
        self._started = False

    # ------------------------------------------------------------------
    # Record plumbing
    # ------------------------------------------------------------------
    def _load(self, job_id: str) -> dict:
        record = self.workspace.job_records().get(job_id)
        if record is None:
            raise JobError(f"unknown job {job_id!r}")
        return record

    def _save(self, record: dict) -> dict:
        record["updated"] = time.time()
        self.workspace.save_job(record)
        return record

    def _next_id(self) -> str:
        numbers = [0]
        for job_id in self.workspace.job_records():
            _, _, tail = job_id.partition("-")
            if tail.isdigit():
                numbers.append(int(tail))
        return f"job-{max(numbers) + 1:04d}"

    def _artifacts(self, job_id: str, spec: dict) -> Dict[str, Optional[str]]:
        """Relative workspace paths of everything a job may produce."""
        ws = self.workspace
        artifacts: Dict[str, Optional[str]] = {
            "log": f"jobs/{job_id}.log",
            "stdout": f"jobs/{job_id}.out",
            "metrics": f"jobs/{job_id}.metrics.json",
        }
        if spec["command"] != "simulate":
            artifacts["result"] = str(
                ws.results_path(f"{job_id}.json").relative_to(ws.root))
            artifacts["manifest"] = artifacts["result"] + ".manifest.json"
        if spec["command"] in SWEEP_COMMANDS:
            artifacts["checkpoint"] = str(
                ws.checkpoint_path(f"{job_id}.jsonl").relative_to(ws.root))
        if spec["trace"]:
            artifacts["trace"] = str(
                ws.trace_path(f"{job_id}.jsonl").relative_to(ws.root))
        return artifacts

    def artifact_path(self, job_id: str, name: str) -> Path:
        """Absolute path of one recorded artifact of a job.

        Raises :class:`JobError` for unknown jobs or artifacts the job
        does not have (e.g. the checkpoint of a simulate campaign).
        """
        record = self._load(job_id)
        relative = record.get("artifacts", {}).get(name)
        if relative is None:
            raise JobError(f"job {job_id} has no {name!r} artifact")
        return self.workspace.root / relative

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def submit(self, spec: dict, *, force: bool = False) -> Tuple[dict, bool]:
        """Queue a job for the given spec.

        Returns ``(record, deduplicated)``: when ``force`` is unset and
        an active or succeeded job already covers the same
        result-determining spec (see :func:`spec_hash`), that job's
        record comes back with ``deduplicated=True`` and nothing new is
        queued.  Failed and cancelled jobs never satisfy dedup -- a
        resubmission is how an operator retries them.
        """
        normalized = validate_spec(spec)
        digest = spec_hash(normalized)
        with self._lock:
            if not force:
                for record in self.workspace.job_records().values():
                    if (record.get("spec_hash") == digest
                            and record.get("state") in
                            (ACTIVE_JOB_STATES | {"succeeded"})):
                        self._metrics.counter(
                            "repro_serve_jobs_deduplicated_total").inc()
                        return record, True
            job_id = self._next_id()
            record = {
                "kind": "serve-job",
                "format_version": JOB_RECORD_VERSION,
                "id": job_id,
                "spec": normalized,
                "spec_hash": digest,
                "state": "queued",
                "created": time.time(),
                "resumed": 0,
                "cancel_requested": 0,
                "pid": None,
                "exit_code": None,
                "error": None,
                "artifacts": self._artifacts(job_id, normalized),
            }
            self._save(record)
            self._metrics.counter("repro_serve_jobs_submitted_total").inc()
        self._queue.put(job_id)
        logger.info("serve: queued %s (%s)", job_id, normalized["command"])
        return record, False

    def get(self, job_id: str) -> dict:
        """The persisted record of one job."""
        return self._load(job_id)

    def jobs(self) -> List[dict]:
        """Every job record, sorted by id."""
        records = self.workspace.job_records()
        return [records[job_id] for job_id in sorted(records)]

    def cancel(self, job_id: str) -> dict:
        """Request cancellation (two-stage, like Ctrl-C on the CLI).

        A queued job is cancelled immediately.  For a building/running
        job the first call SIGTERMs the child, whose shutdown
        coordinator drains in-flight cells to the checkpoint and exits
        4; a second call SIGTERMs again, which the child escalates to a
        hard abort (exit 6).  Terminal jobs are returned unchanged.
        """
        with self._lock:
            record = self._load(job_id)
            if record["state"] in TERMINAL_STATES:
                return record
            record["cancel_requested"] = record.get("cancel_requested", 0) + 1
            if record["state"] == "queued":
                record["state"] = "cancelled"
                record["error"] = "cancelled while queued"
                self._finish_metrics(record)
            self._save(record)
            proc = self._procs.get(job_id)
        if proc is not None and proc.poll() is None:
            try:
                proc.send_signal(signal.SIGTERM)
            except OSError:
                pass
        logger.info("serve: cancel requested for %s (stage %d)", job_id,
                    record["cancel_requested"])
        return record

    def events(self, job_id: str, since: int = 0) -> Tuple[List[dict], int]:
        """Structured progress events of a job, from index ``since``.

        Parses the job's live stderr log through
        :func:`~repro.exec.progress.parse_progress_line`; polling with
        the returned ``next`` index yields only new events.
        """
        record = self._load(job_id)
        path = self.workspace.root / record["artifacts"]["log"]
        events: List[dict] = []
        try:
            with open(path, "r", encoding="utf-8") as handle:
                for line in handle:
                    event = parse_progress_line(line)
                    if event is not None:
                        events.append(event)
        except OSError:
            pass
        since = max(0, int(since))
        return events[since:], len(events)

    def metrics_registry(self) -> MetricsRegistry:
        """The server-wide registry: job counters plus absorbed snapshots.

        Completed jobs' ``--metrics`` JSON snapshots are folded in with
        :meth:`MetricsRegistry.absorb` -- the executor's own
        cross-process aggregation -- as they finish; this refreshes the
        per-state job gauges and returns the registry.
        """
        with self._lock:
            counts: Dict[str, int] = {}
            for record in self.workspace.job_records().values():
                counts[record.get("state", "?")] = \
                    counts.get(record.get("state", "?"), 0) + 1
            for state in ("queued", "building", "running", "succeeded",
                          "failed", "cancelled"):
                self._metrics.gauge("repro_serve_jobs",
                                    state=state).set(counts.get(state, 0))
            return self._metrics

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> List[str]:
        """Recover persisted jobs and start the worker pool.

        Returns the ids of jobs re-enqueued by recovery.
        """
        resumed = self.recover()
        with self._lock:
            if not self._started:
                self._started = True
                for index in range(self.job_workers):
                    thread = threading.Thread(
                        target=self._worker, args=(index,),
                        name=f"repro-job-worker-{index}", daemon=True)
                    thread.start()
                    self._threads.append(thread)
        return resumed

    def recover(self) -> List[str]:
        """Requeue every non-terminal persisted job (crash recovery).

        ``building``/``running`` records are from a previous server
        life: their recorded pid gets a best-effort SIGTERM (the child
        usually died with the server, but an orphan must not keep
        appending to a checkpoint the requeued job is about to reopen;
        if the pid was reused, the stranger receives a politely
        ignorable TERM), then the job returns to ``queued`` with its
        ``resumed`` count bumped.  Its checkpoint is untouched, so the
        re-run resumes instead of restarting.
        """
        requeued: List[str] = []
        with self._lock:
            records = self.workspace.job_records()
            for job_id in sorted(records):
                record = records[job_id]
                state = record.get("state")
                if state not in ACTIVE_JOB_STATES:
                    continue
                if state in ("building", "running"):
                    pid = record.get("pid")
                    if pid:
                        try:
                            os.kill(int(pid), signal.SIGTERM)
                        except (OSError, ValueError):
                            pass
                    record["state"] = "queued"
                    record["resumed"] = record.get("resumed", 0) + 1
                    record["pid"] = None
                    self._save(record)
                self._queue.put(job_id)
                requeued.append(job_id)
        if requeued:
            logger.info("serve: recovered %d job(s): %s", len(requeued),
                        ", ".join(requeued))
        return requeued

    def stop(self, *, graceful: bool = True, timeout: float = 30.0) -> None:
        """Stop the pool; running jobs drain to their checkpoints.

        With ``graceful`` each live child gets one SIGTERM (drain its
        own pool and exit 4, leaving the job ``queued`` for the next
        server); without, each child's process group -- the child and
        its ``--jobs`` pool workers -- is SIGKILLed and the records stay
        stale until :meth:`recover`.  Either way every idle spare is
        retired (:meth:`_retire_spares`).
        """
        deadline = time.monotonic() + timeout
        self._stopping.set()
        with self._lock:
            procs = dict(self._procs)
        for proc in procs.values():
            if not graceful:
                _kill_group(proc)
            elif proc.poll() is None:
                try:
                    proc.send_signal(signal.SIGTERM)
                except OSError:
                    pass
        self._retire_spares(deadline - time.monotonic())
        for thread in self._threads:
            thread.join(max(0.1, deadline - time.monotonic()))
        self._threads = []
        self._started = False
        self._stopping.clear()

    def kill(self) -> None:
        """Simulate a server crash: SIGKILL children, abandon workers.

        Each child's whole process group dies, so no pool worker of a
        killed job outlives it.  Job records are deliberately left stale
        (``running`` with a dead pid) -- exactly what a power cut leaves
        behind -- so tests can drive the :meth:`recover` path.  Idle
        spares ran no job and are retired as :meth:`stop` retires them.
        """
        self._stopping.set()
        with self._lock:
            procs = dict(self._procs)
        for proc in procs.values():
            _kill_group(proc)
        self._retire_spares(10.0)
        for proc in procs.values():
            try:
                proc.wait(timeout=10.0)
            except (OSError, subprocess.TimeoutExpired):
                pass
        for thread in self._threads:
            thread.join(timeout=10.0)
        self._threads = []
        self._started = False
        self._stopping.clear()

    # ------------------------------------------------------------------
    # Worker internals
    # ------------------------------------------------------------------
    def _worker(self, index: int) -> None:
        while not self._stopping.is_set():
            try:
                job_id = self._queue.get(timeout=0.2)
            except queue.Empty:
                continue
            try:
                self._run_job(job_id, index)
            except Exception:
                logger.exception("serve: worker crashed on %s", job_id)
                try:
                    with self._lock:
                        record = self._load(job_id)
                        if record["state"] not in TERMINAL_STATES:
                            record["state"] = "failed"
                            record["error"] = "internal worker error"
                            self._finish_metrics(record)
                            self._save(record)
                except JobError:
                    pass
            finally:
                self._queue.task_done()

    def _argv(self, record: dict) -> List[str]:
        """The job's CLI arguments (``repro.cli.main``'s argv)."""
        spec = record["spec"]
        ws = self.workspace
        job_id = record["id"]
        argv = [spec["command"]]
        if spec["command"] == "simulate":
            argv += ["--scenario", spec["scenario"],
                     "--scheme", spec["scheme"]]
            for key in sorted(spec["scenario_args"]):
                argv += ["--scenario-arg",
                         f"{key}={spec['scenario_args'][key]}"]
        argv += ["--workspace", str(ws.root), "--run-name", job_id,
                 "--runs", str(spec["runs"]), "--gops", str(spec["gops"]),
                 "--seed", str(spec["seed"]), "--jobs", str(spec["jobs"]),
                 "--progress", "--fail-on-error",
                 "--metrics", str(ws.root / record["artifacts"]["metrics"])]
        if "result" in record["artifacts"]:
            argv += ["--output", str(ws.root / record["artifacts"]["result"])]
        if "checkpoint" in record["artifacts"]:
            argv += ["--checkpoint",
                     str(ws.root / record["artifacts"]["checkpoint"])]
        if "trace" in record["artifacts"]:
            argv += ["--trace", str(ws.root / record["artifacts"]["trace"])]
        if spec["cell_timeout"] is not None:
            argv += ["--cell-timeout", str(spec["cell_timeout"])]
        if spec["deadline"] is not None:
            argv += ["--deadline", str(spec["deadline"])]
        return argv

    def _child_env(self) -> Dict[str, str]:
        """The job's environment: ours, plus a guaranteed import path.

        The server may have been started with a relative ``PYTHONPATH``
        (``PYTHONPATH=src ...``); pinning the installed package's parent
        directory absolutely keeps children importable regardless of
        their working directory.  A spare gets it when it is spawned,
        before its job is known: nothing in ``repro`` reads the
        environment at import time, so the job sees it as a child
        spawned for it would.
        """
        import repro

        env = dict(os.environ)
        package_root = str(Path(repro.__file__).resolve().parent.parent)
        existing = env.get("PYTHONPATH", "")
        if package_root not in existing.split(os.pathsep):
            env["PYTHONPATH"] = (package_root + os.pathsep + existing
                                 if existing else package_root)
        return env

    def _spawn_spare(self) -> subprocess.Popen:
        """Start a spare: a process that imports the CLI and awaits a job.

        A session of its own makes the spare -- and so the job it
        becomes -- a process-group leader, so _kill_group reaches the
        job's pool workers too; signals meant for the server (a
        terminal's Ctrl-C) no longer reach it, and a job drains only on
        the server's SIGTERM.  It keeps our stderr until the handoff.
        """
        return subprocess.Popen([self.python, "-m", "repro.jobchild"],
                                stdin=subprocess.PIPE,
                                stdout=subprocess.DEVNULL,
                                env=self._child_env(),
                                start_new_session=True)

    def _take_spare(self, index: int) -> subprocess.Popen:
        """Worker ``index``'s spare, started now if it has none or it died."""
        with self._lock:
            spare = self._spares.pop(index, None)
        if spare is not None and spare.poll() is not None:
            logger.warning("serve: spare pid %d exited with %d before taking "
                           "a job; starting another", spare.pid,
                           spare.returncode)
            spare.stdin.close()
            spare = None
        return spare or self._spawn_spare()

    def _restock(self, index: int) -> None:
        """Start worker ``index``'s next spare unless the pool is stopping."""
        with self._lock:
            if self._stopping.is_set():
                return
            try:
                self._spares[index] = self._spawn_spare()
            except OSError as exc:
                # The next job retries the spawn and fails if it fails.
                logger.warning("serve: could not start a spare: %s", exc)

    def _retire_spares(self, timeout: float) -> None:
        """Close each idle spare's stdin and reap it.

        A spare exits 0 on end of file, once its import is done; one
        still alive after ``timeout`` seconds has its group SIGKILLed.
        """
        with self._lock:
            spares = list(self._spares.values())
            self._spares.clear()
        for spare in spares:
            spare.stdin.close()
        deadline = time.monotonic() + timeout
        for spare in spares:
            try:
                spare.wait(max(0.1, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                _kill_group(spare)
                spare.wait()

    def _run_job(self, job_id: str, index: int) -> None:
        with self._lock:
            record = self._load(job_id)
            if record["state"] != "queued":
                # Cancelled while queued, or a duplicate enqueue after a
                # recover() race: nothing to run.
                return
            record["state"] = "building"
            record["started"] = time.time()
            self._save(record)
        root = self.workspace.root
        job = {"argv": self._argv(record),
               "stdout": str(root / record["artifacts"]["stdout"]),
               "stderr": str(root / record["artifacts"]["log"])}
        proc = None
        try:
            # Create or truncate the report and append to the log here,
            # so an unwritable workspace fails the job before handoff.
            with open(job["stdout"], "w", encoding="utf-8"), \
                    open(job["stderr"], "a", encoding="utf-8"):
                pass
            proc = self._take_spare(index)
            with proc.stdin:
                proc.stdin.write(json.dumps(job).encode("utf-8") + b"\n")
        except OSError as exc:
            if proc is not None:
                _kill_group(proc)
                proc.wait()
            with self._lock:
                record["state"] = "failed"
                record["error"] = f"failed to launch job process: {exc}"
                self._finish_metrics(record)
                self._save(record)
            return
        with self._lock:
            record["state"] = "running"
            record["pid"] = proc.pid
            self._procs[job_id] = proc
            self._save(record)
        logger.info("serve: %s running as pid %d", job_id, proc.pid)
        self._restock(index)
        code = proc.wait()
        if code < 0 and self._stopping.is_set():
            # The pool is being torn down with prejudice (kill(), or a
            # non-graceful stop()): the child died by our SIGKILL, not
            # on its own terms.  Leave the record exactly as a server
            # crash would -- running, with a dead pid -- so recover()
            # on the next start drives the checkpoint-resume path
            # instead of marking the job failed.
            with self._lock:
                self._procs.pop(job_id, None)
            return
        with self._lock:
            self._procs.pop(job_id, None)
            record = self._load(job_id)
            record["pid"] = None
            record["exit_code"] = code
            record["finished"] = time.time()
            requeue = self._apply_exit_code(record, code)
            if record["state"] in TERMINAL_STATES:
                self._absorb_job_metrics(record)
                self._finish_metrics(record)
            self._save(record)
        if requeue:
            self._queue.put(job_id)
        logger.info("serve: %s exited %d -> %s", job_id, code,
                    record["state"])

    def _apply_exit_code(self, record: dict, code: int) -> bool:
        """Map the CLI exit-code contract onto a job state.

        Returns whether the job should be re-enqueued (an external
        interruption of a still-healthy server).
        """
        if code == 0:
            record["state"] = "succeeded"
            record["error"] = None
        elif code == EXIT_FAILED_RUNS:
            record["state"] = "failed"
            record["error"] = ("at least one replication failed after its "
                               "retry (--fail-on-error)")
        elif code == EXIT_DEADLINE:
            record["state"] = "failed"
            record["error"] = "wall-clock deadline exceeded"
        elif code == EXIT_HARD_ABORT:
            record["state"] = "cancelled"
            record["error"] = "hard abort (second cancel)"
        elif code == EXIT_INTERRUPTED:
            if record.get("cancel_requested", 0) > 0:
                record["state"] = "cancelled"
                record["error"] = "cancelled (drained to checkpoint)"
            elif record.get("resumed", 0) >= MAX_AUTO_RESUMES:
                record["state"] = "failed"
                record["error"] = (f"interrupted {MAX_AUTO_RESUMES} times "
                                   f"without completing; giving up")
            else:
                # SIGTERM/SIGINT from outside our cancel path (e.g. the
                # server itself shutting down): the drained checkpoint
                # makes the job resumable, so back to the queue it goes.
                record["state"] = "queued"
                record["resumed"] = record.get("resumed", 0) + 1
                return not self._stopping.is_set()
        else:
            record["state"] = "failed"
            record["error"] = f"job process exited with code {code}"
        return False

    def _absorb_job_metrics(self, record: dict) -> None:
        """Fold a finished job's metrics snapshot into the server registry."""
        path = self.workspace.root / record["artifacts"]["metrics"]
        try:
            snapshot = read_metrics_snapshot(path)
        except (OSError, ValueError):
            return
        try:
            self._metrics.absorb(snapshot)
        except (KeyError, TypeError, ValueError) as exc:
            logger.warning("serve: could not absorb metrics of %s (%s)",
                           record["id"], exc)

    def _finish_metrics(self, record: dict) -> None:
        self._metrics.counter("repro_serve_jobs_completed_total",
                              state=record["state"]).inc()
