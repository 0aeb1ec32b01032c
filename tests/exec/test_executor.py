"""Tests for the executor strategies: serial, parallel, crash handling."""

import multiprocessing
import os

import pytest

from repro.exec.executor import (
    ParallelExecutor,
    SerialExecutor,
    make_executor,
    _run_cells,
)
from repro.exec.plan import plan_campaign, plan_sweep
from repro.exec.supervisor import MAX_DISPATCH_ATTEMPTS
from repro.sim.checkpoint import run_metrics_to_dict
from repro.sim.engine import SimulationEngine
from repro.sim.metrics import FailedRun, RunMetrics
from repro.sim.runner import execute_run
from repro.testing.faults import FaultPlan
from repro.utils.errors import ConfigurationError
from repro.utils.rng import derive_seed


def outcomes_by_key(executor, cells):
    return {o.cell.key: o for o in executor.run(cells)}


class TestSerialExecutor:
    def test_yields_every_cell_once_as_execute_run(self, single_config):
        # A formation reports its members as each one ends, so the
        # stream's order is not the plan's; the contract is one outcome
        # per cell, matched by key, equal to the per-cell path's result.
        plan = plan_campaign(single_config, 3)
        outcomes = list(SerialExecutor().run(plan.cells))
        assert sorted(o.cell.key for o in outcomes) == \
            sorted(cell.key for cell in plan.cells)
        for outcome in outcomes:
            assert isinstance(outcome.result, RunMetrics)
            assert outcome.seconds >= 0.0
            reference, _ = execute_run(outcome.cell.config,
                                       outcome.cell.run_index)
            assert run_metrics_to_dict(outcome.result) == \
                run_metrics_to_dict(reference)

    def test_matches_execute_run(self, single_config):
        plan = plan_campaign(single_config, 2)
        outcomes = list(SerialExecutor().run(plan.cells))
        for outcome in outcomes:
            metrics, _ = execute_run(single_config, outcome.cell.run_index)
            assert outcome.result.mean_psnr == metrics.mean_psnr

    def test_empty_plan(self):
        assert list(SerialExecutor().run([])) == []


class TestParallelExecutor:
    def test_results_bit_identical_to_serial(self, single_config):
        plan = plan_sweep(single_config, "n_channels", [4, 6],
                          ["heuristic1", "heuristic2"], n_runs=2)
        serial = outcomes_by_key(SerialExecutor(), plan.cells)
        parallel = outcomes_by_key(ParallelExecutor(jobs=2), plan.cells)
        assert set(serial) == set(parallel)
        for key in serial:
            assert parallel[key].result.mean_psnr == serial[key].result.mean_psnr
            assert parallel[key].result.per_user_psnr == \
                serial[key].result.per_user_psnr

    def test_failed_cells_survive_the_boundary(self, single_config):
        plan_obj = FaultPlan(nan_fading_slots={0}, poison_runs={1})
        plan = plan_campaign(
            single_config.replace(fault_plan=plan_obj), 3)
        outcomes = outcomes_by_key(ParallelExecutor(jobs=2), plan.cells)
        failed = [o for o in outcomes.values()
                  if isinstance(o.result, FailedRun)]
        assert len(failed) == 1
        assert failed[0].cell.run_index == 1
        assert failed[0].result.error_type == "NumericalError"

    def test_non_picklable_config_fails_fast(self, single_config):
        poisoned = single_config.replace(fault_plan=lambda slot: False)
        plan = plan_campaign(poisoned, 2)
        with pytest.raises(ConfigurationError, match="--jobs 1"):
            list(ParallelExecutor(jobs=2).run(plan.cells))

    def test_empty_plan(self):
        assert list(ParallelExecutor(jobs=2).run([])) == []

    def test_chunking_covers_every_cell_once(self, single_config):
        plan = plan_sweep(single_config, "n_channels", [4, 6],
                          ["proposed", "heuristic1"], n_runs=3)
        faulted = plan_campaign(single_config.replace(
            fault_plan=FaultPlan(poison_runs={1})), 6)
        cells = list(plan.cells) + list(faulted.cells)
        for jobs, widths in ((1, [18]), (2, [9, 9]), (5, [4, 4, 4, 3, 3]),
                             (20, [1] * 18)):
            chunks = ParallelExecutor(jobs=jobs)._chunks(cells)
            flat = sorted(cell.key for chunk in chunks for cell in chunk)
            assert flat == sorted(cell.key for cell in cells)
            # One formation per worker, fault-plan cells included.
            assert [len(task) for task in chunks] == widths

    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            ParallelExecutor(jobs=0)


class TestWorkerCrash:
    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="crash injection relies on fork inheriting the patched module")
    def test_crashed_worker_becomes_failed_run(self, single_config,
                                               monkeypatch):
        """A dying worker process must not take the sweep down with it."""
        # Replication 1 kills its worker as its engine is built, on the
        # lockstep and the per-cell path alike.
        doomed = {derive_seed(single_config.seed, 1, attempt)
                  for attempt in (0, 1)}
        original = SimulationEngine.__init__

        def crashing(engine, config, **kwargs):
            if config.seed in doomed:
                os._exit(17)  # simulate a segfault/OOM-killed worker
            original(engine, config, **kwargs)

        monkeypatch.setattr(SimulationEngine, "__init__", crashing)
        plan = plan_campaign(single_config, 3)
        for budgets in ({}, {"cell_timeout": 30.0}):
            # One worker: all three cells share its one task.
            executor = ParallelExecutor(jobs=1, **budgets)
            outcomes = {o.cell.run_index: o for o in executor.run(plan.cells)}
            assert set(outcomes) == {0, 1, 2}
            assert isinstance(outcomes[1].result, FailedRun)
            assert outcomes[1].result.error_type == "WorkerCrashed"
            assert outcomes[1].result.attempts == MAX_DISPATCH_ATTEMPTS
            # Innocent chunk-mates were re-dispatched and completed normally.
            for run_index in (0, 2):
                reference, _ = execute_run(single_config, run_index)
                assert outcomes[run_index].result.mean_psnr == \
                    reference.mean_psnr


class TestMakeExecutor:
    def test_default_and_one_are_serial(self):
        assert isinstance(make_executor(None), SerialExecutor)
        assert isinstance(make_executor(1), SerialExecutor)

    def test_many_is_parallel(self):
        executor = make_executor(3)
        assert isinstance(executor, ParallelExecutor)
        assert executor.jobs == 3

    def test_invalid_jobs(self):
        for jobs, budgets in ((0, {}), (-2, {}), (0, {"cell_timeout": 5.0}),
                              (0, {"deadline": 5.0})):
            with pytest.raises(ConfigurationError):
                make_executor(jobs, **budgets)


class TestRunChunk:
    def test_returns_key_result_seconds(self, single_config):
        plan = plan_campaign(single_config, 2)
        results = list(_run_cells(list(plan.cells)))
        assert [key for key, _, _ in results] == [c.key for c in plan.cells]
        assert all(isinstance(result, RunMetrics) for _, result, _ in results)
        assert all(seconds >= 0.0 for _, _, seconds in results)
