"""Monte-Carlo replication harness.

Runs a scenario several times with independent (but deterministically
derived) seeds and summarises the runs -- the paper averages 10 runs per
point and reports 95% confidence intervals (Section V).

The harness is fault-tolerant: a replication that raises a
:class:`~repro.utils.errors.ReproError` is retried once with a fresh
deterministically-derived seed, and if the retry also fails the
replication is recorded as a :class:`~repro.sim.metrics.FailedRun`
diagnostic instead of aborting the experiment.  Summaries are computed
over the surviving runs with an explicit ``n_failed`` count.  Parameter
sweeps can additionally checkpoint every completed ``(scheme, sweep
point, run)`` cell to disk (:mod:`repro.sim.checkpoint`) and resume
after an interruption without recomputing finished cells.

Execution is delegated to the plan/executor layer (:mod:`repro.exec`):
the grid of cells is flattened into a deterministic plan and handed to a
serial or multi-process executor (``jobs=N``).  Seeds are derived per
cell from the root seed and results are assembled by cell key, so the
output is bit-identical at every worker count.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.obs.logging import get_logger
from repro.obs.metrics import global_registry, metrics_enabled, scoped_registry
from repro.obs.trace import maybe_span
from repro.sim.checkpoint import SweepCheckpoint
from repro.sim.config import ScenarioConfig
from repro.sim.engine import SimulationEngine
from repro.sim.metrics import (
    FailedRun,
    MetricsSummary,
    RunMetrics,
    summarize_runs,
)
from repro.store.confighash import config_hash
from repro.store.workspace import FileWorkspace
from repro.utils.errors import (
    ConfigurationError,
    ReproError,
    SweepInterrupted,
)
from repro.utils.rng import derive_seed

logger = get_logger(__name__)

#: Attempts per replication: the first try plus one fresh-seed retry.
MAX_ATTEMPTS = 2


def execute_run(config: ScenarioConfig, run_index: int
                ) -> Tuple[Optional[RunMetrics], Optional[FailedRun]]:
    """Run one replication with isolation and a single fresh-seed retry.

    Returns ``(metrics, None)`` on success (possibly on the retry) or
    ``(None, FailedRun)`` when every attempt raised a
    :class:`ReproError`.  Programming errors (anything that is not a
    ``ReproError``) propagate unchanged -- retrying those would only
    mask bugs.
    """
    seeds: List[Optional[int]] = []
    last_error: Optional[ReproError] = None
    for attempt in range(MAX_ATTEMPTS):
        seed = derive_seed(config.seed, run_index, attempt)
        seeds.append(seed)
        plan = config.fault_plan
        if plan is not None and hasattr(plan, "begin_run"):
            plan.begin_run(run_index, attempt)
        try:
            with maybe_span("replication", kind="replication", run=run_index,
                            attempt=attempt, seed=seed, scheme=config.scheme):
                seeded = config.with_seed(seed)
                if metrics_enabled():
                    # Record the replication against a private registry so
                    # its snapshot can ride back on the RunMetrics (from a
                    # worker process or in-line) and be merged by the
                    # parent -- totals come out identical at any --jobs N.
                    with scoped_registry() as registry:
                        metrics = SimulationEngine(seeded).run()
                    metrics = replace(metrics,
                                      obs_snapshot=registry.snapshot())
                else:
                    metrics = SimulationEngine(seeded).run()
            return metrics, None
        except ReproError as exc:
            last_error = exc
            if attempt + 1 < MAX_ATTEMPTS:
                logger.warning(
                    "replication %d attempt %d failed (%s: %s); retrying "
                    "with a fresh derived seed", run_index, attempt,
                    type(exc).__name__, exc)
                from repro.exec.supervisor import apply_backoff

                apply_backoff(config.seed, run_index, attempt + 1,
                              reason="replication-retry")
    logger.error("replication %d lost after %d attempts (%s: %s)",
                 run_index, MAX_ATTEMPTS, type(last_error).__name__,
                 last_error)
    return None, FailedRun(
        run_index=run_index,
        error_type=type(last_error).__name__,
        error=str(last_error),
        attempts=MAX_ATTEMPTS,
        seeds=tuple(seeds),
    )


def _absorb_outcomes(outcomes, cells) -> None:
    """Fold executed cells' telemetry into the parent registry.

    ``outcomes`` maps each executed cell's key to its outcomes (a
    degenerate sweep that lists a scheme twice runs cells that share a
    key).  They are folded in the order of ``cells``, the plan's cell
    order, never in completion order, so the float sums of the absorbed
    histograms and counters come out bit-identical at any worker count.
    Called from the parent-side collection loop only (never in
    workers), mirroring the single-writer checkpointing rule, and only
    with metrics enabled: otherwise the loop keeps no outcomes.
    """
    registry = global_registry()
    for cell in cells:
        for outcome in outcomes.pop(cell.key, ()):
            registry.counter("repro_executor_cells_total").inc()
            registry.counter("repro_executor_busy_seconds_total").inc(
                max(0.0, float(outcome.seconds)))
            snapshot = getattr(outcome.result, "obs_snapshot", None)
            if snapshot:
                registry.absorb(snapshot)


class MonteCarloRunner:
    """Replicated simulation of one scenario.

    Parameters
    ----------
    config:
        The scenario; its ``seed`` is the root from which per-run seeds
        are derived (run ``r`` uses ``SeedSequence([seed, r])``; a
        retried run uses ``SeedSequence([seed, r, attempt])``).
    n_runs:
        Number of independent replications (paper default: 10).
    jobs:
        Worker processes for the replications (``None``/1 = in-process
        serial execution; see :mod:`repro.exec`).  Results are assembled
        by replication index, so any worker count produces bit-identical
        output.
    executor:
        Explicit :class:`~repro.exec.executor.Executor` strategy;
        overrides ``jobs`` when given.
    cell_timeout / deadline:
        Per-replication and whole-campaign wall-clock budgets in
        seconds; either one arms the watchdog of
        :class:`~repro.exec.executor.ParallelExecutor`, which then runs
        the replications in worker processes even at ``jobs=1``.
    progress:
        Optional telemetry sink, as for :func:`sweep`.

    Attributes
    ----------
    failed_runs:
        :class:`FailedRun` diagnostics from the most recent
        :meth:`run_all` / :meth:`summary` call (empty when every
        replication survived).
    """

    def __init__(self, config: ScenarioConfig, *, n_runs: int = 10,
                 jobs: Optional[int] = None,
                 executor: Optional[object] = None,
                 cell_timeout: Optional[float] = None,
                 deadline: Optional[float] = None,
                 progress: Optional[object] = None) -> None:
        if n_runs < 1:
            raise ConfigurationError(f"n_runs must be >= 1, got {n_runs}")
        self.config = config
        self.n_runs = int(n_runs)
        self.jobs = jobs
        self.cell_timeout = cell_timeout
        self.deadline = deadline
        self.progress = progress
        self._executor = executor
        self.failed_runs: List[FailedRun] = []

    def run_one(self, run_index: int, attempt: int = 0) -> RunMetrics:
        """Execute a single replication without isolation (raises on error)."""
        if not 0 <= run_index < self.n_runs:
            raise ConfigurationError(
                f"run_index must be in [0, {self.n_runs}), got {run_index}")
        seed = derive_seed(self.config.seed, run_index, attempt)
        plan = self.config.fault_plan
        if plan is not None and hasattr(plan, "begin_run"):
            plan.begin_run(run_index, attempt)
        return SimulationEngine(self.config.with_seed(seed)).run()

    def run_all(self) -> List[RunMetrics]:
        """Execute every replication and return the surviving runs' metrics.

        Each replication is isolated: a :class:`ReproError` triggers one
        retry with a fresh derived seed, and a second failure is recorded
        in :attr:`failed_runs` rather than raised.  Raises
        :class:`ReproError` only when *every* replication failed.
        """
        from repro.exec.executor import make_executor
        from repro.exec.plan import plan_campaign

        logger.info("campaign: %d replications, scheme %s, seed %s, jobs %s",
                    self.n_runs, self.config.scheme, self.config.seed,
                    self.jobs)
        plan = plan_campaign(self.config, self.n_runs)
        executor = self._executor if self._executor is not None \
            else make_executor(self.jobs, cell_timeout=self.cell_timeout,
                               deadline=self.deadline)
        completed = _collect(plan, executor, progress=self.progress)
        # Plan order is run-index order.
        results = [completed[cell.key] for cell in plan.cells]
        runs = [r for r in results if isinstance(r, RunMetrics)]
        failures = [r for r in results if not isinstance(r, RunMetrics)]
        self.failed_runs = failures
        if not runs:
            raise ReproError(
                f"all {self.n_runs} replications failed; last error: "
                f"{failures[-1].error_type}: {failures[-1].error}")
        return runs

    def summary(self) -> MetricsSummary:
        """Execute every replication and summarise the survivors with CIs.

        The summary's ``n_failed`` reports replications lost after their
        retry; ``n_degraded_slots`` totals the surviving runs' recorded
        degradation events.
        """
        runs = self.run_all()
        return summarize_runs(runs, n_failed=len(self.failed_runs))


@dataclass
class SweepResult:
    """Results of sweeping one scenario parameter across several schemes.

    Attributes
    ----------
    parameter:
        Name of the swept parameter (e.g. ``"n_channels"``).
    values:
        The sweep points, in order.
    summaries:
        ``{scheme: [MetricsSummary per sweep point]}``.
    """

    parameter: str
    values: Sequence[object]
    summaries: Dict[str, List[MetricsSummary]] = field(default_factory=dict)

    def series(self, scheme: str) -> List[float]:
        """Mean-PSNR series of one scheme across the sweep."""
        return [summary.mean_psnr.mean for summary in self.summaries[scheme]]

    def upper_bound_series(self, scheme: str = "proposed") -> List[float]:
        """Eq. (23) upper-bound series (meaningful for the proposed scheme)."""
        return [summary.upper_bound_psnr.mean for summary in self.summaries[scheme]]

    @property
    def n_failed(self) -> int:
        """Total replications lost across every scheme and sweep point."""
        return sum(summary.n_failed
                   for summaries in self.summaries.values()
                   for summary in summaries)


def sweep(base_config: ScenarioConfig, parameter: str, values: Sequence[object],
          schemes: Sequence[str], *, n_runs: int = 10,
          configure: Optional[Callable[[ScenarioConfig, object],
                                       ScenarioConfig]] = None,
          checkpoint_path: Optional[Union[str, Path, SweepCheckpoint]] = None,
          jobs: Optional[int] = None, executor: Optional[object] = None,
          progress: Optional[object] = None,
          cell_timeout: Optional[float] = None,
          deadline: Optional[float] = None,
          workspace: Optional[object] = None,
          run_name: Optional[str] = None) -> SweepResult:
    """Sweep one parameter across several schemes.

    The sweep is flattened into a deterministic plan of ``(scheme, sweep
    point, run)`` cells (:func:`repro.exec.plan.plan_sweep`) and handed
    to an executor strategy (:mod:`repro.exec.executor`).  Per-cell seeds
    are derived from the root seed alone and results are assembled by
    cell key, so every worker count produces bit-identical summaries.

    Parameters
    ----------
    base_config:
        Template scenario.
    parameter:
        Attribute of :class:`ScenarioConfig` to vary (ignored if a custom
        ``configure`` is supplied).
    values:
        Sweep points.
    schemes:
        Allocation schemes to evaluate at every point.
    n_runs:
        Replications per point per scheme.
    configure:
        Optional hook ``(config, value) -> config`` for sweeps that touch
        more than a single attribute (e.g. utilisation sweeps also rebuild
        ``p01``).  Applied during planning, in this process, so it may be
        a lambda even under parallel execution.
    checkpoint_path:
        Optional checkpoint file (a path, or an already-open
        :class:`~repro.sim.checkpoint.SweepCheckpoint` instance for
        tests that inject a faulty writer).  Every completed ``(scheme,
        sweep point, run)`` cell is appended as soon as it arrives;
        rerunning the same sweep with the same path resumes, recomputing
        only the missing cells (at any ``jobs`` value -- the checkpoint
        is executor-agnostic).  All writes happen in this process
        (single-writer), never in workers.  The file fingerprints the
        sweep (parameter, values, schemes, ``n_runs``, root seed) and
        refuses to resume a different one.
    jobs:
        Worker processes (``None``/1 = serial in-process execution;
        ``N > 1`` = a process pool of N workers).
    executor:
        Explicit :class:`~repro.exec.executor.Executor` strategy;
        overrides ``jobs`` when given.
    progress:
        Optional telemetry sink (duck-typed like
        :class:`~repro.exec.progress.ProgressTracker`): ``begin(total,
        cached=...)`` is called once, then ``observe(outcome)`` per
        executed cell.
    cell_timeout / deadline:
        Per-cell and whole-sweep wall-clock budgets in seconds
        (``--cell-timeout`` / ``--deadline``).  Either one arms the
        watchdog of :class:`~repro.exec.executor.ParallelExecutor`
        (worker processes even at ``jobs=1``): a cell past
        its deadline is recorded as a ``FailedRun`` with
        ``error_type="CellTimedOut"`` (and checkpointed, so a resume
        does not retry it), while an expired sweep deadline raises
        :class:`~repro.utils.errors.SweepDeadlineExceeded` after
        checkpointing everything that finished.
    workspace:
        Optional :class:`~repro.store.workspace.FileWorkspace` (or
        directory path).  The sweep registers its checkpoint there under
        ``run_name`` so ``repro workspace list`` shows it and
        ``repro workspace gc`` prunes the entry once its files are gone.
    run_name:
        Workspace registry name for this sweep (defaults to
        ``"<parameter>-sweep"``); ignored without ``workspace``.

    Notes
    -----
    All schemes at a sweep point share the same root seed, so they face
    identical channel occupancy, sensing noise, and fading -- the paired
    comparison the paper's figures rely on.  Failed replications (after
    their retry) are excluded from each point's summary and counted in
    its ``n_failed``.
    """
    from repro.exec.executor import make_executor
    from repro.exec.plan import plan_sweep

    plan = plan_sweep(base_config, parameter, values, schemes,
                      n_runs=n_runs, configure=configure)
    checkpoint = None
    if isinstance(checkpoint_path, SweepCheckpoint):
        checkpoint = checkpoint_path
    elif checkpoint_path is not None:
        try:
            # The fault plan is deliberately not part of the checkpoint
            # fingerprint (a fault-injected sweep may be resumed
            # fault-free and vice versa), so hash without it.
            base_hash = config_hash(base_config.replace(fault_plan=None))
        except TypeError:
            # Duck-typed test configs (un-canonicalisable topologies)
            # sweep fine; they just forgo the config-identity guard.
            base_hash = None
        checkpoint = SweepCheckpoint(
            checkpoint_path, parameter=parameter, values=values,
            schemes=schemes, n_runs=n_runs, seed=base_config.seed,
            config_hash=base_hash)
    if workspace is not None:
        if not isinstance(workspace, FileWorkspace):
            workspace = FileWorkspace(workspace)
        workspace.register_run(
            run_name or f"{parameter}-sweep",
            parameter=parameter,
            n_cells=len(plan.cells),
            checkpoint=(None if checkpoint is None else checkpoint.path))

    if executor is None:
        executor = make_executor(jobs, cell_timeout=cell_timeout,
                                 deadline=deadline)

    return _assemble_sweep(plan, _collect(plan, executor,
                                          checkpoint=checkpoint,
                                          progress=progress))


def _collect(plan, executor, *, checkpoint: Optional[SweepCheckpoint] = None,
             progress: Optional[object] = None
             ) -> Dict[str, Union[RunMetrics, FailedRun]]:
    """Run a plan's cells and return every cell's result by key.

    The one collection loop of :func:`sweep` and
    :meth:`MonteCarloRunner.run_all`.  Cells found in ``checkpoint`` are
    not executed; the rest go to ``executor``, and each result is
    appended to the checkpoint as soon as it arrives.  All writes happen
    here, in the parent process (single-writer), never in workers.
    ``progress`` (duck-typed like
    :class:`~repro.exec.progress.ProgressTracker`) gets ``begin(total,
    cached=...)`` once and ``observe(outcome)`` per executed cell.

    Raises :class:`~repro.utils.errors.SweepInterrupted` when the
    executor drained early under a shutdown signal, after making the
    checkpointed cells durable.
    """
    from repro.exec.supervisor import active_shutdown

    completed: Dict[str, Union[RunMetrics, FailedRun]] = {}
    pending = []
    for cell in plan.cells:
        cached = checkpoint.get(cell.key) if checkpoint is not None else None
        if cached is not None:
            completed[cell.key] = cached
        else:
            pending.append(cell)

    logger.info("sweep %s: %d cells planned, %d pending, %d from checkpoint",
                plan.parameter, len(plan.cells), len(pending), len(completed))
    if progress is not None and hasattr(progress, "begin"):
        progress.begin(len(pending), cached=len(completed))
    coordinator = active_shutdown()
    if coordinator is not None and checkpoint is not None:
        # On a second (hard-abort) signal the coordinator forces a final
        # checkpoint fsync before exiting, so every recorded cell is
        # durable even then.
        coordinator.add_flusher(checkpoint.sync)
    observing = metrics_enabled()
    outcomes = {}
    try:
        for outcome in executor.run(pending):
            if checkpoint is not None:
                checkpoint.record(outcome.cell.key, outcome.result)
            if observing:
                outcomes.setdefault(outcome.cell.key, []).append(outcome)
            completed[outcome.cell.key] = outcome.result
            if progress is not None and hasattr(progress, "observe"):
                progress.observe(outcome)
    finally:
        if coordinator is not None and checkpoint is not None:
            coordinator.remove_flusher(checkpoint.sync)
        if observing:
            _absorb_outcomes(outcomes, pending)

    # Count distinct keys: a degenerate sweep may list a scheme twice,
    # in which case its cells share keys and completed can never reach
    # len(plan.cells).
    if len(completed) < len({cell.key for cell in plan.cells}):
        if checkpoint is not None:
            checkpoint.sync()
        raise SweepInterrupted(
            f"sweep interrupted by shutdown signal: {len(completed)}/"
            f"{len(plan.cells)} cells completed"
            + ("" if checkpoint is None
               else f"; resume from checkpoint {checkpoint.path}"))
    return completed


def _assemble_sweep(plan, completed) -> SweepResult:
    """Fold per-cell results into a :class:`SweepResult`, by cell key.

    Assembly order is the plan's deterministic grid order -- never the
    executors' completion order -- which is what makes parallel runs
    bit-identical to serial ones.
    """
    result = SweepResult(parameter=plan.parameter, values=list(plan.values))
    for scheme in plan.schemes:
        result.summaries[scheme] = []
    for point_index, value in enumerate(plan.values):
        for scheme in plan.schemes:
            runs: List[RunMetrics] = []
            failures: List[FailedRun] = []
            for run_index in range(plan.n_runs):
                key = SweepCheckpoint.cell_key(scheme, point_index, run_index)
                cell = completed[key]
                if isinstance(cell, RunMetrics):
                    runs.append(cell)
                else:
                    failures.append(cell)
            if not runs:
                raise ReproError(
                    f"all {plan.n_runs} replications failed for scheme "
                    f"{scheme!r} at {plan.parameter}={value!r}; last error: "
                    f"{failures[-1].error_type}: {failures[-1].error}")
            result.summaries[scheme].append(
                summarize_runs(runs, n_failed=len(failures)))
    return result
