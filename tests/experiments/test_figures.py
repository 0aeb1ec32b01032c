"""Tests for the figure-regeneration experiment modules (tiny instances)."""

import numpy as np
import pytest

from repro.experiments.fig3 import Fig3Row, max_improvement_db, run_fig3
from repro.experiments.fig4 import run_fig4a, run_fig4b, run_fig4c
from repro.experiments.fig6 import run_fig6b, run_fig6c
from repro.experiments.report import format_convergence, format_fig3, format_sweep
from repro.experiments.scenarios import single_fbs_scenario
from repro.sim.runner import MonteCarloRunner


class TestFig3:
    def test_row_structure(self):
        rows = run_fig3(n_runs=2, n_gops=1)
        assert [row.scheme for row in rows] == [
            "proposed-fast", "heuristic1", "heuristic2"]
        for row in rows:
            assert set(row.per_user_psnr) == {0, 1, 2}

    def test_max_improvement_positive(self):
        rows = run_fig3(n_runs=3, n_gops=2)
        assert max_improvement_db(rows) > 0.0

    def test_report_renders(self):
        rows = run_fig3(n_runs=2, n_gops=1)
        text = format_fig3(rows)
        assert "proposed-fast" in text
        assert "user 0" in text

    def test_max_improvement_requires_heuristics(self):
        rows = run_fig3(n_runs=1, n_gops=1, schemes=("proposed-fast",))
        with pytest.raises(ValueError):
            max_improvement_db(rows)

    def test_one_executor_runs_every_scheme(self, monkeypatch):
        # One sweep over the three schemes: one pool, one deadline clock.
        from repro.exec import executor as executor_module

        original = executor_module.make_executor
        made, dispatched = [], []

        def counting(*args, **kwargs):
            executor = original(*args, **kwargs)
            run = executor.run

            def counted(cells):
                dispatched.append(len(cells))
                return run(cells)

            executor.run = counted
            made.append(executor)
            return executor

        monkeypatch.setattr(executor_module, "make_executor", counting)
        rows = run_fig3(n_runs=2, n_gops=1, jobs=2, deadline=600.0)
        assert len(made) == 1
        assert dispatched == [3 * 2]
        assert [row.n_failed for row in rows] == [0, 0, 0]

    def test_rows_match_per_scheme_campaigns(self):
        rows = run_fig3(n_runs=2, n_gops=1, seed=5, jobs=1)
        for row in rows:
            config = single_fbs_scenario(n_gops=1, seed=5, scheme=row.scheme)
            summary = MonteCarloRunner(config, n_runs=2, jobs=1).summary()
            assert row.per_user_psnr == summary.per_user_psnr
            assert row.fairness == summary.fairness
            assert row.n_failed == summary.n_failed


class TestFig4a:
    def test_trace_converges(self):
        result = run_fig4a(max_iterations=2000)
        assert result.converged
        assert result.trace.shape[1] == 2  # lambda_0 and lambda_1
        assert result.stations == [0, 1]
        # Later movement is smaller than early movement.
        early = np.abs(np.diff(result.trace[:10], axis=0)).sum()
        late = np.abs(np.diff(result.trace[-10:], axis=0)).sum()
        assert late < early

    def test_report_renders(self):
        result = run_fig4a()
        text = format_convergence(result.trace, result.stations, samples=5)
        assert "lambda_0" in text


class TestFig4Sweeps:
    def test_fig4b_schema(self):
        result = run_fig4b(n_runs=2, n_gops=1, channels=(4, 8),
                           schemes=("heuristic1",))
        assert result.values == [4, 8]
        assert len(result.series("heuristic1")) == 2

    def test_fig4b_more_channels_help(self):
        result = run_fig4b(n_runs=3, n_gops=2, channels=(4, 12),
                           schemes=("heuristic1",))
        series = result.series("heuristic1")
        assert series[1] > series[0]

    def test_fig4c_utilization_hurts(self):
        result = run_fig4c(n_runs=3, n_gops=2, utilizations=(0.3, 0.7),
                           schemes=("heuristic1",))
        series = result.series("heuristic1")
        assert series[0] > series[1]


class TestFig6Sweeps:
    def test_fig6b_schema(self):
        result = run_fig6b(n_runs=1, n_gops=1,
                           error_pairs=((0.3, 0.3),),
                           schemes=("heuristic1", "heuristic2"))
        assert len(result.values) == 1
        text = format_sweep(result, value_format="{0[0]}/{0[1]}")
        assert "heuristic1" in text

    def test_fig6c_bandwidth_helps(self):
        result = run_fig6c(n_runs=2, n_gops=1, bandwidths=(0.1, 0.5),
                           schemes=("heuristic1",))
        series = result.series("heuristic1")
        assert series[1] > series[0]

    def test_upper_bound_column_renders(self, interfering_config):
        from repro.sim.runner import sweep
        result = sweep(interfering_config, "n_channels", [4],
                       ["proposed-fast"], n_runs=1)
        text = format_sweep(result, upper_bound=True)
        assert "upper bound" in text
