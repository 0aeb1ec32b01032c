"""Tests of the fault-injection harness itself plus the sensing-outage
and atomic-save degradation paths.

Acceptance path (d): an interrupted save leaves the previous results
file intact.
"""

import json
import os

import numpy as np
import pytest

from repro.experiments.fig3 import run_fig3
from repro.experiments.results_io import load_results, save_results, \
    sweep_to_dict
from repro.sim import SimulationEngine, sweep
from repro.sim.checkpoint import SweepCheckpoint
from repro.sim.metrics import FailedRun
from repro.testing.faults import FaultPlan
from repro.utils.errors import (
    CheckpointError,
    ConfigurationError,
    NumericalError,
)
from repro.utils.stats import ConfidenceInterval
from tests.faults import (
    CrashingCheckpoint,
    InjectedCrash,
    corrupt_json_file,
    simulated_disk_full,
)


class TestFaultPlan:
    def test_default_plan_is_inert(self):
        plan = FaultPlan()
        assert not plan.forces_nonconvergence(0)
        assert not plan.poisons_fading(0)
        assert plan.sensing_outage(0, 8) == frozenset()

    def test_slot_scoping(self):
        plan = FaultPlan(nonconvergent_slots={3})
        assert plan.forces_nonconvergence(3)
        assert not plan.forces_nonconvergence(2)

    def test_run_scoping(self):
        plan = FaultPlan(nan_fading_slots={0}, poison_runs={2})
        assert plan.for_run(0, 0) is None
        assert plan.for_run(2, 0) is plan
        assert plan.for_run(2, 1) is plan  # the retry is poisoned too
        everywhere = FaultPlan(nan_fading_slots={0})
        assert everywhere.for_run(5, 0) is everywhere

    def test_unannounced_run_matches_everything(self, single_config):
        # An engine built standalone is never scoped to a run, so the
        # plan applies to it whatever poison_runs names.
        plan = FaultPlan(nan_fading_slots={0}, poison_runs={2})
        with pytest.raises(NumericalError):
            SimulationEngine(single_config.replace(fault_plan=plan)).run()

    def test_outage_channel_scoping(self):
        plan = FaultPlan(sensing_outage_slots={1},
                         sensing_outage_channels={0, 2, 99})
        assert plan.sensing_outage(1, 4) == frozenset({0, 2})
        assert plan.sensing_outage(0, 4) == frozenset()
        assert FaultPlan(sensing_outage_slots={1}).sensing_outage(1, 3) == \
            frozenset({0, 1, 2})


class TestSensingOutage:
    def test_outage_degrades_gracefully(self, single_config):
        plan = FaultPlan(sensing_outage_slots={0, 4})
        engine = SimulationEngine(single_config.replace(fault_plan=plan))
        metrics = engine.run()
        outages = [e for e in metrics.degradation_events
                   if e.cause == "sensing-outage"]
        assert [e.slot for e in outages] == [0, 4]
        assert all(e.fallback == "prior-only" for e in outages)
        assert np.isfinite(metrics.mean_psnr)

    def test_total_blackout_still_completes(self, single_config):
        plan = FaultPlan(
            sensing_outage_slots=set(range(single_config.n_slots)))
        metrics = SimulationEngine(
            single_config.replace(fault_plan=plan)).run()
        assert sum(1 for e in metrics.degradation_events
                   if e.cause == "sensing-outage") == single_config.n_slots
        # Without observations the posteriors equal the priors; collisions
        # must still respect the cap the access policy enforces.
        assert np.isfinite(metrics.mean_psnr)

    def test_outage_interfering_scenario(self, interfering_config):
        plan = FaultPlan(sensing_outage_slots={0})
        metrics = SimulationEngine(
            interfering_config.replace(fault_plan=plan)).run()
        assert any(e.cause == "sensing-outage"
                   for e in metrics.degradation_events)


class TestCorruptJsonFile:
    def test_truncates_file(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text(json.dumps({"a": list(range(100))}))
        original = path.stat().st_size
        corrupt_json_file(path, keep_fraction=0.5)
        assert 0 < path.stat().st_size < original
        with pytest.raises(json.JSONDecodeError):
            json.loads(path.read_text())

    def test_rejects_bad_fraction(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text("{}")
        with pytest.raises(ValueError):
            corrupt_json_file(path, keep_fraction=1.5)

    def test_corrupted_results_file_fails_loudly(self, single_config, tmp_path):
        rows = run_fig3(n_runs=1, n_gops=1, schemes=("heuristic1",
                                                     "proposed-fast"))
        path = tmp_path / "fig3.json"
        save_results(rows, path)
        corrupt_json_file(path, keep_fraction=0.6)
        with pytest.raises(json.JSONDecodeError):
            load_results(path)


class TestInterruptedSave:
    """Acceptance (d): a failed save never corrupts the previous file."""

    def _sweep_result(self, single_config):
        return sweep(single_config, "n_channels", [4], ["heuristic1"],
                     n_runs=1)

    def test_nonfinite_save_leaves_previous_file_intact(self, single_config,
                                                        tmp_path):
        result = self._sweep_result(single_config)
        path = tmp_path / "results.json"
        save_results(result, path)
        good = path.read_text()

        poisoned = self._sweep_result(single_config)
        summary = poisoned.summaries["heuristic1"][0]
        poisoned.summaries["heuristic1"][0] = type(summary)(
            mean_psnr=ConfidenceInterval(
                mean=float("nan"), half_width=0.0, confidence=0.95,
                n_samples=1),
            per_user_psnr=summary.per_user_psnr,
            upper_bound_psnr=summary.upper_bound_psnr,
            fairness=summary.fairness,
            mean_collision_rate=summary.mean_collision_rate,
        )
        with pytest.raises(ConfigurationError):
            save_results(poisoned, path)
        assert path.read_text() == good
        assert load_results(path).series("heuristic1")  # still loadable

    def test_crash_during_write_leaves_previous_file_intact(
            self, single_config, tmp_path, monkeypatch):
        result = self._sweep_result(single_config)
        path = tmp_path / "results.json"
        save_results(result, path)
        good = path.read_text()

        # Simulate the process dying mid-write: os.replace never runs.
        def interrupted(src, dst):
            raise KeyboardInterrupt

        monkeypatch.setattr(os, "replace", interrupted)
        with pytest.raises(KeyboardInterrupt):
            save_results(result, path)
        assert path.read_text() == good

    def test_no_temp_debris_after_failure(self, single_config, tmp_path,
                                          monkeypatch):
        result = self._sweep_result(single_config)
        path = tmp_path / "results.json"

        def interrupted(src, dst):
            raise OSError("disk detached")

        monkeypatch.setattr(os, "replace", interrupted)
        with pytest.raises(OSError):
            save_results(result, path)
        assert list(tmp_path.iterdir()) == []


SWEEP_ARGS = ("n_channels", [4, 6], ["heuristic1", "heuristic2"])


def _run_sweep(config, **kwargs):
    return sweep(config, *SWEEP_ARGS, n_runs=2, **kwargs)


class TestCrashDuringCheckpointWrite:
    """A process dying inside ``write(2)`` leaves a torn final line; the
    loader must repair it and the resume must be byte-identical."""

    def test_torn_line_is_repaired_and_resume_is_byte_identical(
            self, single_config, tmp_path):
        config = single_config.replace(n_gops=1)
        reference = _run_sweep(config)

        path = tmp_path / "sweep.ckpt"
        crashing = CrashingCheckpoint(
            path, parameter=SWEEP_ARGS[0], values=SWEEP_ARGS[1],
            schemes=SWEEP_ARGS[2], n_runs=2, seed=config.seed,
            crash_after=3)
        with pytest.raises(InjectedCrash):
            _run_sweep(config, checkpoint_path=crashing)

        # The crash fsynced a torn prefix: no trailing newline, and the
        # final line is not parseable JSON.
        raw = path.read_bytes()
        assert not raw.endswith(b"\n")
        with pytest.raises(json.JSONDecodeError):
            json.loads(raw.rsplit(b"\n", 1)[-1].decode())

        # Reopening repairs the file: the torn cell is dropped (it will
        # re-run), the three complete cells survive, and the file is
        # truncated back to whole lines so later appends stay valid.
        repaired = SweepCheckpoint(
            path, parameter=SWEEP_ARGS[0], values=SWEEP_ARGS[1],
            schemes=SWEEP_ARGS[2], n_runs=2, seed=config.seed)
        assert len(repaired) == 3
        assert path.read_bytes().endswith(b"\n")

        resumed = _run_sweep(config, checkpoint_path=path)
        assert json.dumps(sweep_to_dict(resumed), sort_keys=True) == \
            json.dumps(sweep_to_dict(reference), sort_keys=True)

    def test_crash_after_zero_tears_the_first_cell(self, single_config,
                                                   tmp_path):
        config = single_config.replace(n_gops=1)
        path = tmp_path / "sweep.ckpt"
        crashing = CrashingCheckpoint(
            path, parameter=SWEEP_ARGS[0], values=SWEEP_ARGS[1],
            schemes=SWEEP_ARGS[2], n_runs=2, seed=config.seed,
            crash_after=0)
        with pytest.raises(InjectedCrash):
            _run_sweep(config, checkpoint_path=crashing)
        repaired = SweepCheckpoint(
            path, parameter=SWEEP_ARGS[0], values=SWEEP_ARGS[1],
            schemes=SWEEP_ARGS[2], n_runs=2, seed=config.seed)
        assert len(repaired) == 0  # header survived, no cells


class TestSimulatedDiskFull:
    def test_checkpoint_append_fails_loudly(self, tmp_path):
        ckpt = SweepCheckpoint(
            tmp_path / "sweep.ckpt", parameter=SWEEP_ARGS[0],
            values=SWEEP_ARGS[1], schemes=SWEEP_ARGS[2], n_runs=2, seed=7)
        failed = FailedRun(run_index=0, error_type="NumericalError",
                           error="injected", attempts=2, seeds=(1, 2))
        with simulated_disk_full():
            with pytest.raises(CheckpointError, match="No space left"):
                ckpt.record(ckpt.cell_key("heuristic1", 0, 0), failed)
        # The volume recovered: the same record now persists, and the
        # failed append never half-wrote the in-memory view.
        ckpt.record(ckpt.cell_key("heuristic1", 0, 0), failed)
        assert len(ckpt) == 1

    def test_fail_after_budget_spends_successes_first(self, tmp_path):
        ckpt = SweepCheckpoint(
            tmp_path / "sweep.ckpt", parameter=SWEEP_ARGS[0],
            values=SWEEP_ARGS[1], schemes=SWEEP_ARGS[2], n_runs=2, seed=7)
        failed = FailedRun(run_index=0, error_type="NumericalError",
                           error="injected", attempts=2, seeds=(1, 2))
        with simulated_disk_full(fail_after=1):
            ckpt.record(ckpt.cell_key("heuristic1", 0, 0), failed)
            with pytest.raises(CheckpointError):
                ckpt.record(ckpt.cell_key("heuristic1", 0, 1), failed)
        assert os.fsync is not None  # the real fsync was restored

    def test_save_results_under_disk_full_keeps_previous_file(
            self, single_config, tmp_path):
        result = sweep(single_config, "n_channels", [4], ["heuristic1"],
                       n_runs=1)
        path = tmp_path / "results.json"
        save_results(result, path)
        good = path.read_text()

        with simulated_disk_full():
            with pytest.raises(OSError):
                save_results(result, path)
        assert path.read_text() == good
        assert [p.name for p in tmp_path.iterdir()] == ["results.json"]
