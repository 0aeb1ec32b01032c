"""Fault-injection tests of sweep checkpoint/resume.

Acceptance path (c): killing a sweep mid-way and rerunning resumes from
the checkpoint without recomputing completed cells.
"""

import json

import numpy as np
import pytest

from repro.sim import MonteCarloRunner, SweepCheckpoint, sweep
from repro.sim.checkpoint import run_metrics_from_dict, run_metrics_to_dict
from repro.sim.engine import SimulationEngine
from repro.sim.metrics import FailedRun
from repro.testing.faults import FaultPlan, corrupt_json_file
from repro.utils.errors import CheckpointError


SWEEP_ARGS = dict(parameter="n_channels", values=[4, 6],
                  schemes=["heuristic1", "heuristic2"], n_runs=2)


def run_sweep(config, path=None, **overrides):
    kwargs = dict(SWEEP_ARGS, **overrides)
    return sweep(config, kwargs["parameter"], kwargs["values"],
                 kwargs["schemes"], n_runs=kwargs["n_runs"],
                 checkpoint_path=path)


class TestRunMetricsSerialization:
    def test_round_trip(self, single_config):
        metrics = MonteCarloRunner(single_config, n_runs=1).run_all()[0]
        restored = run_metrics_from_dict(run_metrics_to_dict(metrics))
        assert restored.per_user_psnr == metrics.per_user_psnr
        assert restored.mean_psnr == metrics.mean_psnr
        assert restored.fairness == metrics.fairness
        assert restored.upper_bound_psnr == metrics.upper_bound_psnr
        assert list(restored.collision_rates) == list(metrics.collision_rates)
        assert restored.bound_gaps_per_gop == metrics.bound_gaps_per_gop

    def test_degradation_events_survive(self, single_config):
        plan = FaultPlan(nonconvergent_slots={1})
        metrics = MonteCarloRunner(
            single_config.replace(fault_plan=plan), n_runs=1).run_all()[0]
        restored = run_metrics_from_dict(run_metrics_to_dict(metrics))
        assert restored.degradation_events == metrics.degradation_events


class TestCheckpointResume:
    def test_fresh_checkpoint_writes_all_cells(self, single_config, tmp_path):
        path = tmp_path / "ckpt.jsonl"
        run_sweep(single_config, path)
        # header + values x schemes x runs cells
        lines = path.read_text().splitlines()
        assert len(lines) == 1 + 2 * 2 * 2

    def test_resume_skips_completed_cells(self, single_config, tmp_path,
                                          monkeypatch):
        path = tmp_path / "ckpt.jsonl"
        first = run_sweep(single_config, path)

        # A resumed run must not construct a single engine, on any path.
        def explode(engine, config, **kwargs):
            raise AssertionError("completed cell was recomputed")

        monkeypatch.setattr(SimulationEngine, "__init__", explode)
        resumed = run_sweep(single_config, path)
        for scheme in SWEEP_ARGS["schemes"]:
            assert resumed.series(scheme) == first.series(scheme)

    def test_interrupted_sweep_resumes_where_it_stopped(self, single_config,
                                                        tmp_path, monkeypatch):
        """Acceptance (c): kill the sweep mid-way, rerun, get identical results."""
        path = tmp_path / "ckpt.jsonl"
        reference = run_sweep(single_config)  # no checkpoint

        # The kill lands as the fourth finished cell is recorded; the
        # engine builds are counted.  Both seams are on every path.
        real_record = SweepCheckpoint.record
        real_init = SimulationEngine.__init__
        calls = {"records": 0, "engines": 0}

        def killed_after_three(checkpoint, key, result):
            if calls["records"] >= 3:
                raise KeyboardInterrupt  # simulated operator kill
            calls["records"] += 1
            return real_record(checkpoint, key, result)

        def counting(engine, config, **kwargs):
            calls["engines"] += 1
            real_init(engine, config, **kwargs)

        monkeypatch.setattr(SweepCheckpoint, "record", killed_after_three)
        with pytest.raises(KeyboardInterrupt):
            run_sweep(single_config, path)
        completed_lines = len(path.read_text().splitlines())
        assert completed_lines == 1 + 3  # header + the three finished cells

        # Rerun without the kill: only the remaining cells are computed.
        monkeypatch.setattr(SweepCheckpoint, "record", real_record)
        monkeypatch.setattr(SimulationEngine, "__init__", counting)
        resumed = run_sweep(single_config, path)
        assert calls["engines"] == 2 * 2 * 2 - 3
        for scheme in SWEEP_ARGS["schemes"]:
            assert resumed.series(scheme) == reference.series(scheme)

    def test_failed_cells_are_not_retried_across_resumes(self, single_config,
                                                         tmp_path, monkeypatch):
        plan = FaultPlan(nan_fading_slots={0}, poison_runs={1})
        config = single_config.replace(fault_plan=plan)
        path = tmp_path / "ckpt.jsonl"
        first = run_sweep(config, path, schemes=["heuristic1"])
        assert first.n_failed == 2  # one failed run per sweep point

        import repro.sim.runner as runner_module
        monkeypatch.setattr(
            runner_module, "execute_run",
            lambda config, run_index: pytest.fail("failed cell recomputed"))
        resumed = run_sweep(config, path, schemes=["heuristic1"])
        assert resumed.n_failed == 2


class TestCheckpointSafety:
    def test_mismatched_sweep_is_refused(self, single_config, tmp_path):
        path = tmp_path / "ckpt.jsonl"
        run_sweep(single_config, path)
        with pytest.raises(CheckpointError):
            run_sweep(single_config, path, values=[4, 8])
        with pytest.raises(CheckpointError):
            run_sweep(single_config, path, n_runs=5)
        with pytest.raises(CheckpointError):
            run_sweep(single_config.with_seed(99), path)

    def test_non_checkpoint_file_is_refused(self, single_config, tmp_path):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"kind": "sweep"}) + "\n")
        with pytest.raises(CheckpointError):
            run_sweep(single_config, path)

    def test_truncated_final_line_is_dropped_and_repaired(self, single_config,
                                                          tmp_path):
        path = tmp_path / "ckpt.jsonl"
        first = run_sweep(single_config, path)
        corrupt_json_file(path, keep_fraction=0.9)
        resumed = run_sweep(single_config, path)
        assert resumed.series("heuristic2") == first.series("heuristic2")
        # The repaired file must be fully parseable line by line.
        for line in path.read_text().splitlines():
            json.loads(line)

    def test_mid_file_corruption_raises(self, single_config, tmp_path):
        path = tmp_path / "ckpt.jsonl"
        run_sweep(single_config, path)
        lines = path.read_text().splitlines()
        lines[2] = lines[2][: len(lines[2]) // 2]  # damage a middle line
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CheckpointError):
            run_sweep(single_config, path)

    def test_numpy_sweep_values_serialize(self, single_config, tmp_path):
        """Regression: ``np.linspace`` values / numpy seed crashed the header.

        ``json.dumps`` refuses ``np.float64``/``np.int64``, so a sweep over
        ``np.linspace(...)`` died with ``TypeError: Object of type int64 is
        not JSON serializable`` the moment the checkpoint was created.
        """
        path = tmp_path / "np.jsonl"
        ckpt = SweepCheckpoint(path, parameter="gamma",
                               values=np.linspace(0.1, 0.3, 2),
                               schemes=["heuristic1"], n_runs=1,
                               seed=np.int64(7))
        metrics = MonteCarloRunner(single_config, n_runs=1).run_all()[0]
        ckpt.record(SweepCheckpoint.cell_key("heuristic1", 0, 0), metrics)
        for line in path.read_text().splitlines():
            json.loads(line)

    def test_numpy_sweep_values_fingerprint_matches_builtins(self, tmp_path):
        """A numpy-valued sweep resumes under numpy *or* builtin values."""
        path = tmp_path / "np2.jsonl"
        SweepCheckpoint(path, parameter="gamma",
                        values=np.linspace(0.1, 0.3, 2),
                        schemes=["heuristic1"], n_runs=1, seed=np.int64(7))
        # Same sweep, numpy values again: accepted.
        SweepCheckpoint(path, parameter="gamma",
                        values=np.linspace(0.1, 0.3, 2),
                        schemes=["heuristic1"], n_runs=1, seed=np.int64(7))
        # Same sweep expressed with builtins: also accepted.
        SweepCheckpoint(path, parameter="gamma", values=[0.1, 0.3],
                        schemes=["heuristic1"], n_runs=1, seed=7)
        # A genuinely different sweep is still refused.
        with pytest.raises(CheckpointError):
            SweepCheckpoint(path, parameter="gamma",
                            values=np.linspace(0.1, 0.5, 2),
                            schemes=["heuristic1"], n_runs=1, seed=7)

    def test_sweep_with_numpy_values_checkpoints_end_to_end(
            self, single_config, tmp_path):
        path = tmp_path / "np3.jsonl"
        first = run_sweep(single_config, path, parameter="gamma",
                          values=np.linspace(0.1, 0.3, 2),
                          schemes=["heuristic1"], n_runs=1)
        resumed = run_sweep(single_config, path, parameter="gamma",
                            values=np.linspace(0.1, 0.3, 2),
                            schemes=["heuristic1"], n_runs=1)
        assert resumed.series("heuristic1") == first.series("heuristic1")

    def test_cell_api_round_trip(self, single_config, tmp_path):
        path = tmp_path / "cells.jsonl"
        ckpt = SweepCheckpoint(path, parameter="p", values=[1],
                               schemes=["heuristic1"], n_runs=1, seed=1)
        key = SweepCheckpoint.cell_key("heuristic1", 0, 0)
        assert key not in ckpt
        failure = FailedRun(run_index=0, error_type="NumericalError",
                            error="nan", attempts=2, seeds=(1, 2))
        ckpt.record(key, failure)
        reloaded = SweepCheckpoint(path, parameter="p", values=[1],
                                   schemes=["heuristic1"], n_runs=1, seed=1)
        assert reloaded.get(key) == failure
