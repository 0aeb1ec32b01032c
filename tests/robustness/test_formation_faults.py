"""Fault-plan cells run their first attempt in the lockstep formation.

A fault plan is scoped to a replication by ``for_run``, which each
attempt's config carries, so fault-injected cells take the production
path: every cell is a formation member, and a member that fails (here:
NaN fading) escapes to the per-cell path, whose retry then applies.
Results, failures and per-run obs snapshots must equal the per-cell
reference, serially and on a pool.
"""

from dataclasses import replace

import pytest

from repro.exec.executor import ParallelExecutor, SerialExecutor
from repro.exec.plan import plan_sweep
from repro.experiments.results_io import sweep_to_dict
from repro.experiments.scenarios import single_fbs_scenario
from repro.obs.metrics import enable_metrics, reset_metrics, scoped_registry
from repro.sim.checkpoint import run_metrics_to_dict
from repro.sim.metrics import FailedRun
from repro.sim.runner import sweep
from repro.testing.faults import FaultPlan
from tests.oracle import clear_solver_caches, unbatched


class FatalOnPoisonedRuns(FaultPlan):
    """Outages and slow slots on every run; non-convergence and NaN
    fading only on ``poison_runs``.

    Forced non-convergence kills a heuristic1 replication (it has no
    fallback) and degrades a proposed-fast one, so it is kept to the
    poisoned run, which NaN fading then kills whatever its scheme.
    """

    def for_run(self, run_index, attempt):
        return super().for_run(run_index, attempt) or replace(
            self, nonconvergent_slots=frozenset(),
            nan_fading_slots=frozenset(), poison_runs=None)


PLAN = FatalOnPoisonedRuns(nonconvergent_slots={0}, sensing_outage_slots={1},
                           nan_fading_slots={2}, slow_slots={3},
                           slow_seconds=0.01, poison_runs={1})

SCHEMES = ["proposed-fast", "heuristic1"]

EXECUTORS = {"jobs1": SerialExecutor, "jobs2": lambda: ParallelExecutor(2)}


@pytest.fixture
def config():
    return single_fbs_scenario(n_gops=1, seed=404).replace(fault_plan=PLAN)


def _run(cells, executor):
    clear_solver_caches()
    return {outcome.cell.key: outcome.result
            for outcome in executor.run(cells)}


@pytest.mark.parametrize("executor", sorted(EXECUTORS))
def test_fault_plan_cells_are_members_and_match_unbatched(config, executor):
    cells = plan_sweep(config, "n_channels", [6], SCHEMES, n_runs=3).cells
    enable_metrics(True)
    try:
        with scoped_registry(), unbatched():
            reference = _run(cells, SerialExecutor())
        with scoped_registry():
            batched = _run(cells, EXECUTORS[executor]())
    finally:
        enable_metrics(False)
        reset_metrics()

    assert sorted(batched) == sorted(reference)
    failed = sorted(key for key, result in batched.items()
                    if isinstance(result, FailedRun))
    assert failed == sorted(cell.key for cell in cells if cell.run_index == 1)
    for key, expected in reference.items():
        got = batched[key]
        if isinstance(expected, FailedRun):
            assert got == expected  # seeds included
            continue
        assert run_metrics_to_dict(got) == run_metrics_to_dict(expected)
        assert got.obs_snapshot == expected.obs_snapshot
        assert [event.slot for event in got.degradation_events
                if event.cause == "sensing-outage"] == [1]
    assert {result.error_type for result in batched.values()
            if isinstance(result, FailedRun)} == {"AllocationFailedError",
                                                   "NumericalError"}


@pytest.mark.parametrize("executor", sorted(EXECUTORS))
def test_every_cell_of_a_fault_injected_sweep_is_a_member(config, executor):
    args = ("n_channels", [6], SCHEMES)
    with unbatched():
        reference = sweep(config, *args, n_runs=3)
    enable_metrics(True)
    try:
        with scoped_registry() as registry:
            result = sweep(config, *args, n_runs=3,
                           executor=EXECUTORS[executor]())
            counters = registry.counters()
    finally:
        enable_metrics(False)
        reset_metrics()
    assert counters["repro_lockstep_batch_members_total"] == 3 * len(SCHEMES)
    # Each scheme's poisoned run escapes to the per-cell path, once.
    assert counters["repro_lockstep_escapes_total"] == len(SCHEMES)
    assert sweep_to_dict(result) == sweep_to_dict(reference)
    for scheme in SCHEMES:
        assert result.summaries[scheme][0].n_failed == 1
