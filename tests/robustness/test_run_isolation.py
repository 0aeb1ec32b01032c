"""Fault-injection tests of per-replication isolation and retry.

Acceptance path (b): a sweep with one poisoned replication still
produces a summary with ``n_failed == 1``.
"""

import pytest

from repro.sim import MonteCarloRunner, sweep
from repro.sim.metrics import FailedRun
from repro.sim.runner import execute_run
from repro.testing.faults import FaultPlan
from repro.utils.errors import ReproError
from repro.utils.rng import derive_seed


class TestDerivedRetrySeeds:
    def test_attempt_zero_matches_historical_seed(self):
        assert derive_seed(7, 3) == derive_seed(7, 3, attempt=0)

    def test_retry_seed_differs(self):
        assert derive_seed(7, 3, attempt=1) != derive_seed(7, 3, attempt=0)

    def test_unseeded_stays_unseeded(self):
        assert derive_seed(None, 0, attempt=1) is None


class TestExecuteRun:
    def test_success_returns_metrics(self, single_config):
        metrics, failure = execute_run(single_config, 0)
        assert failure is None
        assert metrics.mean_psnr > 0

    def test_persistent_fault_returns_failed_run(self, single_config):
        config = single_config.replace(
            fault_plan=FaultPlan(nan_fading_slots={1}))
        metrics, failure = execute_run(config, 0)
        assert metrics is None
        assert isinstance(failure, FailedRun)
        assert failure.error_type == "NumericalError"
        assert failure.attempts == 2
        assert len(failure.seeds) == 2
        assert failure.seeds[0] != failure.seeds[1]

    def test_failed_run_round_trips_through_dict(self, single_config):
        config = single_config.replace(
            fault_plan=FaultPlan(nan_fading_slots={0}))
        _, failure = execute_run(config, 2)
        assert FailedRun.from_dict(failure.to_dict()) == failure


class TestRunnerIsolation:
    def test_poisoned_replication_is_excluded_not_fatal(self, single_config):
        plan = FaultPlan(nan_fading_slots={0}, poison_runs={1})
        runner = MonteCarloRunner(
            single_config.replace(fault_plan=plan), n_runs=3)
        runs = runner.run_all()
        assert len(runs) == 2
        assert len(runner.failed_runs) == 1
        assert runner.failed_runs[0].run_index == 1

    def test_summary_reports_n_failed(self, single_config):
        plan = FaultPlan(nan_fading_slots={0}, poison_runs={0})
        summary = MonteCarloRunner(
            single_config.replace(fault_plan=plan), n_runs=3).summary()
        assert summary.n_failed == 1
        assert summary.mean_psnr.n_samples == 2

    def test_all_replications_failing_raises(self, single_config):
        plan = FaultPlan(nan_fading_slots={0})  # every run, every attempt
        runner = MonteCarloRunner(
            single_config.replace(fault_plan=plan), n_runs=2)
        with pytest.raises(ReproError):
            runner.run_all()

    def test_surviving_runs_match_unpoisoned_runs(self, single_config):
        """Isolation must not perturb the healthy replications' seeds."""
        healthy = MonteCarloRunner(single_config, n_runs=3).run_all()
        plan = FaultPlan(nan_fading_slots={0}, poison_runs={1})
        survivors = MonteCarloRunner(
            single_config.replace(fault_plan=plan), n_runs=3).run_all()
        assert [r.mean_psnr for r in survivors] == [
            healthy[0].mean_psnr, healthy[2].mean_psnr]


class TestSweepIsolation:
    """Acceptance (b): the poisoned-sweep end-to-end scenario."""

    def test_sweep_with_one_poisoned_replication(self, single_config):
        plan = FaultPlan(nan_fading_slots={1}, poison_runs={2})
        result = sweep(
            single_config.replace(fault_plan=plan),
            "n_channels", [6], ["heuristic1"], n_runs=3)
        summary = result.summaries["heuristic1"][0]
        assert summary.n_failed == 1
        assert summary.mean_psnr.n_samples == 2
        assert result.n_failed == 1

    def test_transient_fault_recovers_via_retry(self, single_config):
        """A fault hitting only attempt 0 is healed by the fresh-seed retry."""

        class TransientPlan(FaultPlan):
            def begin_run(self, run_index, attempt=0):
                super().begin_run(run_index, attempt)
                self._attempt = attempt

            def poisons_fading(self, slot):
                return getattr(self, "_attempt", 0) == 0 and super().poisons_fading(slot)

        plan = TransientPlan(nan_fading_slots={0}, poison_runs={1})
        runner = MonteCarloRunner(
            single_config.replace(fault_plan=plan), n_runs=2)
        runs = runner.run_all()
        assert len(runs) == 2
        assert runner.failed_runs == []
