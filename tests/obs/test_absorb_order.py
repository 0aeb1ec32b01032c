"""Metric totals do not depend on the order cells complete in.

Worker processes hand their cells back in completion order, and the
parent folds each replication's metrics snapshot into its registry.
Float sums (PSNR histogram sums, solver counters) are not associative,
so folding in completion order would make the last bits of the totals
depend on which worker reported first.  These tests replay one set of
recorded cell outcomes forward and reversed through a sweep and a
campaign and require byte-identical metrics exports.
"""

from repro import obs
from repro.exec.executor import SerialExecutor
from repro.experiments.scenarios import single_fbs_scenario
from repro.obs.export import prometheus_text
from repro.sim.runner import MonteCarloRunner, sweep

SCHEMES = ("proposed-fast", "heuristic1")


class RecordingExecutor:
    """Serial execution that keeps every outcome it hands back."""

    def __init__(self):
        self.outcomes = []

    def run(self, cells):
        for outcome in SerialExecutor().run(cells):
            self.outcomes.append(outcome)
            yield outcome


class ReplayExecutor:
    """Hands back recorded outcomes, in plan order or reversed."""

    def __init__(self, outcomes, *, reverse):
        self.by_key = {outcome.cell.key: outcome for outcome in outcomes}
        self.reverse = reverse

    def run(self, cells):
        outcomes = [self.by_key[cell.key] for cell in cells]
        return iter(outcomes[::-1] if self.reverse else outcomes)


def _export(run):
    """The metrics export of ``run()`` against a fresh registry."""
    obs.reset_metrics()
    obs.enable_metrics(True)
    try:
        run()
        return prometheus_text(obs.global_registry())
    finally:
        obs.enable_metrics(False)


def _sweep(executor):
    config = single_fbs_scenario(n_gops=1, seed=11)
    return sweep(config, "n_channels", [3, 5], SCHEMES, n_runs=4,
                 executor=executor)


def _campaign(executor):
    config = single_fbs_scenario(n_gops=1, seed=11, scheme="heuristic1")
    return MonteCarloRunner(config, n_runs=8, executor=executor).run_all()


def _assert_order_free(run):
    recorder = RecordingExecutor()
    _export(lambda: run(recorder))
    forward = _export(lambda: run(ReplayExecutor(recorder.outcomes,
                                                 reverse=False)))
    backward = _export(lambda: run(ReplayExecutor(recorder.outcomes,
                                                  reverse=True)))
    assert "repro_user_psnr_db_sum" in forward
    assert backward == forward


def test_sweep_metrics_export_ignores_completion_order():
    _assert_order_free(_sweep)


def test_campaign_metrics_export_ignores_completion_order():
    _assert_order_free(_campaign)
