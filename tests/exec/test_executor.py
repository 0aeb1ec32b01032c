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
from repro.sim.metrics import FailedRun, RunMetrics
from repro.sim.runner import execute_run
from repro.testing.faults import FaultPlan
from repro.utils.errors import ConfigurationError


def outcomes_by_key(executor, cells):
    return {o.cell.key: o for o in executor.run(cells)}


class TestSerialExecutor:
    def test_streams_in_plan_order(self, single_config):
        plan = plan_campaign(single_config, 3)
        outcomes = list(SerialExecutor().run(plan.cells))
        assert [o.cell.run_index for o in outcomes] == [0, 1, 2]
        assert all(isinstance(o.result, RunMetrics) for o in outcomes)
        assert all(o.seconds >= 0.0 for o in outcomes)

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

    def test_chunking_covers_every_cell_once(self, single_config,
                                             monkeypatch):
        from repro.sim import lockstep

        plan = plan_sweep(single_config, "n_channels", [4, 6],
                          ["proposed", "heuristic1"], n_runs=3)
        cells = list(plan.cells)
        for jobs, cap, widths in ((2, lockstep.MAX_BATCH, [3, 3]),
                                  (1, 4, [3, 3]), (1, 6, [6])):
            monkeypatch.setattr(lockstep, "MAX_BATCH", cap)
            chunks = ParallelExecutor(jobs=jobs, chunk_size=2)._chunks(cells)
            flat = sorted(cell.key for chunk in chunks for cell in chunk)
            assert flat == sorted(cell.key for cell in cells)
            # The formations go first, each one whole task: the worker
            # plans it as one group, and no other task holds a
            # batchable cell.
            formations = chunks[:len(widths)]
            assert [len(task) for task in formations] == widths
            for task in formations:
                assert lockstep.plan_batch_groups(task) == [task]
            rest = chunks[len(widths):]
            assert [len(task) for task in rest] == [2, 2, 2]
            assert not any(lockstep.cell_batchable(cell)
                           for task in rest for cell in task)

    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            ParallelExecutor(jobs=0)
        with pytest.raises(ConfigurationError):
            ParallelExecutor(jobs=2, chunk_size=0)


class TestWorkerCrash:
    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="crash injection relies on fork inheriting the patched module")
    def test_crashed_worker_becomes_failed_run(self, single_config,
                                               monkeypatch):
        """A dying worker process must not take the sweep down with it."""
        import repro.exec.executor as executor_module

        original = executor_module._execute_cell

        def crashing(cell):
            if cell.run_index == 1:
                os._exit(17)  # simulate a segfault/OOM-killed worker
            return original(cell)

        monkeypatch.setattr(executor_module, "_execute_cell", crashing)
        plan = plan_campaign(single_config, 3)
        for budgets in ({}, {"cell_timeout": 30.0}):
            executor = ParallelExecutor(jobs=2, chunk_size=3, **budgets)
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
