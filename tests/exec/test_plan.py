"""Tests for sweep planning: flattening, determinism, picklability."""

import pickle
import sys

import pytest

from repro.exec.plan import (
    CAMPAIGN_PARAMETER,
    Cell,
    ensure_picklable,
    plan_campaign,
    plan_sweep,
)
from repro.sim.checkpoint import SweepCheckpoint
from repro.sim.runner import execute_run
from repro.utils.errors import ConfigurationError


class TestPlanSweep:
    def test_grid_is_complete_and_ordered(self, single_config):
        plan = plan_sweep(single_config, "n_channels", [4, 8],
                          ["heuristic1", "heuristic2"], n_runs=3)
        assert plan.n_cells == 2 * 2 * 3
        # Historical serial loop order: point, then scheme, then run.
        expected = [
            (point, scheme, run)
            for point in (0, 1)
            for scheme in ("heuristic1", "heuristic2")
            for run in (0, 1, 2)
        ]
        actual = [(c.point_index, c.scheme, c.run_index) for c in plan.cells]
        assert actual == expected

    def test_keys_unique_and_canonical(self, single_config):
        plan = plan_sweep(single_config, "n_channels", [4, 8],
                          ["heuristic1"], n_runs=2)
        keys = [cell.key for cell in plan.cells]
        assert len(set(keys)) == plan.n_cells
        assert keys[0] == SweepCheckpoint.cell_key("heuristic1", 0, 0)

    def test_configs_are_derived(self, single_config):
        plan = plan_sweep(single_config, "n_channels", [4, 8],
                          ["heuristic1", "heuristic2"], n_runs=1)
        for cell in plan.cells:
            assert cell.config.scheme == cell.scheme
            assert cell.config.n_channels == (4, 8)[cell.point_index]
            assert cell.config.seed == single_config.seed

    def test_configure_hook_applied_at_plan_time(self, single_config):
        from repro.experiments.scenarios import utilization_to_p01
        plan = plan_sweep(
            single_config, "utilization", [0.3, 0.6], ["heuristic1"],
            n_runs=1,
            configure=lambda cfg, eta: cfg.replace(p01=utilization_to_p01(eta)))
        p01s = [cell.config.p01 for cell in plan.cells]
        assert p01s == [utilization_to_p01(0.3), utilization_to_p01(0.6)]
        # The lambda never needs to cross a process boundary: the derived
        # configs themselves pickle fine.
        ensure_picklable(plan.cells)

    def test_planning_is_deterministic(self, single_config):
        a = plan_sweep(single_config, "n_channels", [4], ["heuristic1"], n_runs=2)
        b = plan_sweep(single_config, "n_channels", [4], ["heuristic1"], n_runs=2)
        assert [c.key for c in a.cells] == [c.key for c in b.cells]

    def test_empty_grid_rejected(self, single_config):
        with pytest.raises(ConfigurationError):
            plan_sweep(single_config, "n_channels", [], ["heuristic1"])
        with pytest.raises(ConfigurationError):
            plan_sweep(single_config, "n_channels", [4], [])
        with pytest.raises(ConfigurationError):
            plan_sweep(single_config, "n_channels", [4], ["heuristic1"],
                       n_runs=0)


class TestPlanCampaign:
    def test_one_cell_per_replication(self, single_config):
        plan = plan_campaign(single_config, 4)
        assert plan.parameter == CAMPAIGN_PARAMETER
        assert plan.n_cells == 4
        assert [c.run_index for c in plan.cells] == [0, 1, 2, 3]
        assert all(c.scheme == single_config.scheme for c in plan.cells)
        assert all(c.point_index == 0 for c in plan.cells)

    def test_invalid_n_runs(self, single_config):
        with pytest.raises(ConfigurationError):
            plan_campaign(single_config, 0)


class TestStudentTPreflight:
    """More than 1999 runs need scipy's Student-t quantile; without scipy
    the plan is refused before any cell runs."""

    @pytest.fixture
    def no_scipy(self, monkeypatch):
        monkeypatch.setitem(sys.modules, "scipy", None)

    def test_table_sized_campaign_plans_without_scipy(self, single_config,
                                                      no_scipy):
        plan = plan_sweep(single_config, "n_channels", [4], ["heuristic1"],
                          n_runs=1999)
        assert plan.n_cells == 1999

    def test_larger_campaign_names_scipy_and_the_dev_extra(
            self, single_config, no_scipy):
        with pytest.raises(ConfigurationError, match=r"scipy.*repro\[dev\]"):
            plan_campaign(single_config, 2000)

    def test_cli_exits_2_before_running(self, no_scipy, capsys, tmp_path):
        from repro.cli import main

        assert main(["simulate", "--runs", "2000", "--gops", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "scipy" in captured.err and "repro[dev]" in captured.err
        checkpoint = tmp_path / "ckpt.jsonl"
        assert main(["fig4b", "--runs", "2000", "--gops", "1",
                     "--checkpoint", str(checkpoint)]) == 2
        assert not checkpoint.exists()


class TestPicklability:
    def test_plain_config_round_trips_through_pickle(self, single_config):
        """A paper-scenario config survives the process boundary exactly."""
        cell = Cell(scheme="heuristic1", point_index=0, run_index=1,
                    config=single_config.with_scheme("heuristic1"))
        restored = pickle.loads(pickle.dumps(cell))
        assert restored.key == cell.key
        assert restored.config.seed == cell.config.seed
        assert restored.config.n_channels == cell.config.n_channels
        # The restored config drives the engine to the identical result.
        original, _ = execute_run(cell.config, cell.run_index)
        roundtrip, _ = execute_run(restored.config, restored.run_index)
        assert roundtrip.mean_psnr == original.mean_psnr
        assert roundtrip.per_user_psnr == original.per_user_psnr

    def test_non_picklable_config_raises_clearly(self, single_config):
        poisoned = single_config.replace(fault_plan=lambda slot: False)
        cell = Cell(scheme=poisoned.scheme, point_index=0, run_index=0,
                    config=poisoned)
        with pytest.raises(ConfigurationError, match="--jobs 1"):
            ensure_picklable([cell])
