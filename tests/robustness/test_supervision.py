"""The supervised execution runtime: watchdog timeouts and backoff.

Acceptance contract (ISSUE 6): a deterministic ``hang`` fault in one
cell of a ``--jobs 2`` sweep completes the sweep with that cell recorded
as ``error_type="CellTimedOut"`` (the pool never wedges); timed-out
cells are checkpointed, not retried forever; supervision is
telemetry-and-scheduling only, so a healthy supervised run is
byte-identical to a serial one; and timeout/backoff events surface in
the obs metrics registry and the trace-summary trailer.
"""

import json
import multiprocessing
import os

import pytest

from repro import obs
from repro.exec.executor import ParallelExecutor, SerialExecutor, make_executor
from repro.exec.supervisor import MAX_DISPATCH_ATTEMPTS, backoff_delay
from repro.experiments.results_io import sweep_to_dict
from repro.sim import lockstep
from repro.sim.checkpoint import SweepCheckpoint, run_metrics_to_dict
from repro.sim.engine import SimulationEngine
from repro.sim.metrics import FailedRun
from repro.sim.runner import execute_run, sweep
from repro.testing.faults import FaultPlan
from repro.utils.errors import ConfigurationError, SweepDeadlineExceeded

SWEEP_ARGS = ("n_channels", [4, 6], ["heuristic1", "heuristic2"])


def run(config, **kwargs):
    return sweep(config, *SWEEP_ARGS, n_runs=2, **kwargs)


def as_json(result) -> str:
    return json.dumps(sweep_to_dict(result), sort_keys=True)


@pytest.fixture
def fast_config(single_config):
    return single_config.replace(n_gops=1)


@pytest.fixture
def hanging_config(fast_config):
    """Replication 1 of every (scheme, point) hangs at its first slot."""
    plan = FaultPlan(hang_slots={0}, hang_seconds=60.0, poison_runs={1})
    return fast_config.replace(fault_plan=plan)


class TestBackoffDelay:
    def test_first_attempt_never_waits(self):
        assert backoff_delay(7, 0, 0) == 0.0
        assert backoff_delay(None, 3, 0) == 0.0

    def test_deterministic_for_same_inputs(self):
        assert backoff_delay(7, 2, 1) == backoff_delay(7, 2, 1)
        assert backoff_delay(None, 2, 1) == backoff_delay(None, 2, 1)

    def test_varies_with_seed_and_run(self):
        delays = {backoff_delay(seed, run, 1)
                  for seed in (1, 2, 3) for run in (0, 1)}
        assert len(delays) == 6  # jitter separates every (seed, run)

    def test_exponential_and_bounded(self):
        # Attempt n draws from [magnitude/2, magnitude) with
        # magnitude = min(cap, base * 2**(n-1)).
        for attempt, magnitude in ((1, 0.05), (2, 0.1), (3, 0.2)):
            delay = backoff_delay(7, 0, attempt)
            assert magnitude / 2 <= delay < magnitude
        assert backoff_delay(7, 0, 50) < 2.0  # capped, no overflow


class TestMakeExecutor:
    def test_timeouts_select_supervised_executor(self):
        ex = make_executor(2, cell_timeout=5.0)
        assert isinstance(ex, ParallelExecutor)
        assert ex.jobs == 2 and ex.cell_timeout == 5.0
        ex = make_executor(None, deadline=30.0)
        assert isinstance(ex, ParallelExecutor)
        assert ex.jobs == 1 and ex.deadline == 30.0

    def test_no_timeouts_keep_existing_strategies(self):
        assert isinstance(make_executor(1), SerialExecutor)
        ex = make_executor(2)
        assert isinstance(ex, ParallelExecutor)
        assert ex.cell_timeout is None and ex.deadline is None

    def test_rejects_bad_budgets(self):
        with pytest.raises(ConfigurationError):
            ParallelExecutor(1, cell_timeout=0.0)
        with pytest.raises(ConfigurationError):
            ParallelExecutor(1, deadline=-1.0)
        with pytest.raises(ConfigurationError):
            ParallelExecutor(0)


class TestSupervisedByteIdentity:
    def test_healthy_supervised_run_matches_serial(self, fast_config):
        reference = run(fast_config)  # plain serial, unsupervised
        for jobs in (1, 2):
            supervised = run(fast_config, jobs=jobs, cell_timeout=120.0)
            assert as_json(supervised) == as_json(reference)


class TestCellTimeout:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_hung_cell_recorded_as_timed_out(self, hanging_config, tmp_path,
                                             jobs):
        path = tmp_path / "sweep.ckpt"
        result = run(hanging_config, checkpoint_path=path, jobs=jobs,
                     cell_timeout=2.0)
        # Run 1 of each of the 4 (scheme, point) cells hung and was
        # killed; the sweep still completed -- the pool never wedged.
        assert result.n_failed == 4

        ckpt = SweepCheckpoint(path, parameter=SWEEP_ARGS[0],
                               values=SWEEP_ARGS[1], schemes=SWEEP_ARGS[2],
                               n_runs=2, seed=hanging_config.seed)
        timed_out = [key for key in (ckpt.cell_key(s, p, 1)
                                     for s in SWEEP_ARGS[2] for p in (0, 1))
                     for cell in [ckpt.get(key)]
                     if isinstance(cell, FailedRun)
                     and cell.error_type == "CellTimedOut"]
        assert len(timed_out) == 4

    def test_timed_out_cells_resume_without_retry(self, hanging_config,
                                                  tmp_path):
        path = tmp_path / "sweep.ckpt"
        result = run(hanging_config, checkpoint_path=path, jobs=2,
                     cell_timeout=2.0)

        class ExplodingExecutor(SerialExecutor):
            def run(self, cells):
                assert list(cells) == []  # nothing left to execute
                return iter(())

        resumed = run(hanging_config, checkpoint_path=path,
                      executor=ExplodingExecutor())
        assert as_json(resumed) == as_json(result)

    def test_surviving_cells_match_unsupervised_run(self, hanging_config,
                                                    fast_config):
        # The hang only sleeps; killed cells aside, every surviving
        # replication must be byte-identical to the fault-free run's.
        supervised = run(hanging_config, jobs=2, cell_timeout=2.0)
        reference = run(fast_config)
        for scheme in SWEEP_ARGS[2]:
            for sup, ref in zip(supervised.summaries[scheme],
                                reference.summaries[scheme]):
                # Run 0 survived in both; the summary over survivors
                # differs only in n_failed accounting.
                assert sup.n_failed == 1
                assert ref.n_failed == 0


class TestSweepDeadline:
    def test_deadline_aborts_then_resume_is_byte_identical(self, fast_config,
                                                           tmp_path):
        slow = fast_config.replace(fault_plan=FaultPlan(
            slow_slots=frozenset(range(200)), slow_seconds=0.2))
        path = tmp_path / "sweep.ckpt"
        with pytest.raises(SweepDeadlineExceeded):
            run(slow, checkpoint_path=path, jobs=2, deadline=0.6)

        # Slow faults only sleep, so finishing the sweep without them
        # (and without supervision) must give the reference bytes.
        reference = run(fast_config)
        resumed = run(fast_config, checkpoint_path=path)
        assert as_json(resumed) == as_json(reference)


def _crash_in_worker(engine, config, **kwargs):
    os._exit(17)


class TestWorkerCrash:
    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="monkeypatched worker body requires the fork start method")
    def test_crashing_cell_written_off_after_redispatch(self, fast_config,
                                                        monkeypatch):
        # Every engine build kills its worker, on the lockstep and the
        # per-cell path alike.
        monkeypatch.setattr(SimulationEngine, "__init__", _crash_in_worker)
        executor = ParallelExecutor(2, cell_timeout=30.0)
        from repro.exec.plan import plan_campaign

        plan = plan_campaign(fast_config, 2)
        outcomes = list(executor.run(plan.cells))
        assert len(outcomes) == 2
        for outcome in outcomes:
            assert isinstance(outcome.result, FailedRun)
            assert outcome.result.error_type == "WorkerCrashed"
            assert outcome.result.attempts == MAX_DISPATCH_ATTEMPTS


#: Counters that record how cells were spread over worker processes.
SPREAD_COUNTERS = ("repro_video_rd_table_requests_total",
                   "repro_lockstep_groups_total",
                   "repro_lockstep_rounds_total",
                   "repro_lockstep_stacked_iterations_total")


class TestSupervisionTelemetry:
    def test_timeout_and_backoff_counters_in_metrics_snapshot(
            self, hanging_config):
        obs.reset_metrics()
        obs.enable_metrics(True)
        try:
            run(hanging_config, jobs=2, cell_timeout=2.0)
            snapshot = obs.global_registry().snapshot()
        finally:
            obs.enable_metrics(False)
            obs.reset_metrics()
        counters = snapshot["counters"]
        assert counters["repro_supervisor_cell_timeouts_total"] == 4
        assert counters["repro_supervisor_worker_replacements_total"] >= 4

    def test_metrics_identical_with_and_without_supervision(self,
                                                            fast_config):
        def collect(**kwargs):
            obs.reset_metrics()
            obs.enable_metrics(True)
            try:
                run(fast_config, **kwargs)
                return obs.global_registry().snapshot()
            finally:
                obs.enable_metrics(False)
                obs.reset_metrics()

        def normalise(value):
            # Histogram sums are float accumulations folded in cell
            # *completion* order under a pool, which can differ from
            # serial order by an ulp; bucket counts stay exact.
            if isinstance(value, dict) and "sum" in value:
                return dict(value, sum=round(float(value["sum"]), 6))
            return value

        def deterministic(snapshot):
            # Wall-clock samples (busy/phase seconds) legitimately vary
            # between runs.  Cache-traffic counters (R-D table hit/miss
            # splits) and the formations' groups, rounds and stacked
            # iterations depend on how cells spread over worker
            # processes, not on simulation events; every other
            # event-count sample must not vary.
            return {section: {key: normalise(value)
                              for key, value in samples.items()
                              if "seconds" not in key
                              and not key.startswith(SPREAD_COUNTERS)}
                    for section, samples in snapshot.items()}

        plain = collect()
        supervised = collect(jobs=2, cell_timeout=120.0)
        # Engine-produced telemetry folds identically; supervision adds
        # no counters on the healthy path.
        assert deterministic(plain) == deterministic(supervised)

    def test_timeouts_surface_in_trace_trailer(self, hanging_config,
                                               tmp_path):
        trace_path = tmp_path / "run.trace"
        obs.activate(obs.SpanTracer(str(trace_path)))
        try:
            run(hanging_config, jobs=2, cell_timeout=2.0)
        finally:
            obs.deactivate()
        events = obs.read_trace(str(trace_path))
        trailer = [e for e in events if e["kind"] == "trace-summary"]
        assert len(trailer) == 1
        assert trailer[0]["attrs"]["cell_timeouts"] == 4
        assert sum(1 for e in events if e["name"] == "cell-timeout") == 4


needs_fork = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="the spy reaches workers only through fork inheritance")


class TestBudgetsKeepLockstep:
    @needs_fork
    def test_budgeted_sweep_batches_inside_workers(self, fast_config,
                                                   tmp_path, monkeypatch):
        # 16 replications of one scheme: every worker gets a formation
        # of several cells at jobs 1 and at jobs 2.
        args = ("n_channels", [4], ["proposed"])
        reference = sweep(fast_config, *args, n_runs=16)
        log = tmp_path / "lockstep.log"
        original = lockstep.run_cells_lockstep

        def spy(cells, fallback):
            with open(log, "a") as handle:
                handle.write(f"{os.getpid()}\n")
            return original(cells, fallback)

        monkeypatch.setattr(lockstep, "run_cells_lockstep", spy)
        for jobs in (1, 2):
            log.write_text("")
            budgeted = sweep(fast_config, *args, n_runs=16, jobs=jobs,
                             cell_timeout=120.0)
            assert as_json(budgeted) == as_json(reference)
            pids = {int(line) for line in log.read_text().split()}
            assert pids and os.getpid() not in pids


class TestTimeoutInsideTask:
    def test_only_the_hung_cell_is_written_off(self, fast_config, tmp_path):
        from repro.exec.plan import plan_campaign

        hung = fast_config.replace(fault_plan=FaultPlan(
            hang_slots={0}, hang_seconds=60.0, poison_runs={1}))
        plan = plan_campaign(hung, 4)
        executor = ParallelExecutor(2, cell_timeout=2.0)
        trace_path = tmp_path / "run.trace"
        obs.reset_metrics()
        obs.enable_metrics(True)
        obs.activate(obs.SpanTracer(str(trace_path)))
        try:
            outcomes = {o.cell.run_index: o.result
                        for o in executor.run(plan.cells)}
            counters = obs.global_registry().snapshot()["counters"]
        finally:
            obs.deactivate()
            obs.enable_metrics(False)
            obs.reset_metrics()

        # Cells 1 and 3 shared one worker's formation.  The hang overran
        # its budget; the unreported cells were requeued solo, and only
        # the hung one overran again.
        assert sorted(outcomes) == [0, 1, 2, 3]
        assert isinstance(outcomes[1], FailedRun)
        assert outcomes[1].error_type == "CellTimedOut"
        for run_index in (0, 2, 3):
            reference, _ = execute_run(fast_config, run_index)
            assert json.dumps(run_metrics_to_dict(outcomes[run_index])) == \
                json.dumps(run_metrics_to_dict(reference))
        # Only the written-off cell counts as a timeout; the requeue
        # does not.
        assert counters["repro_supervisor_cell_timeouts_total"] == 1
        assert counters["repro_supervisor_worker_replacements_total"] == 2
        events = obs.read_trace(str(trace_path))
        assert sum(1 for e in events if e["name"] == "cell-timeout") == 1
