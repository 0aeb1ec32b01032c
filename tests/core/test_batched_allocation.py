"""Differential contract of the cross-replication batched allocation.

The stacked kernel (:mod:`repro.core.batch`) and the lockstep driver
(:mod:`repro.sim.lockstep`) exist purely for speed: every request they
answer must be *bit-identical* to the scalar oracle (``tests/oracle.py``)
and to the single-request solver, and every campaign they batch must
serialise byte-for-byte like the per-replication path.
These tests pin that contract at three levels -- individual solve
requests (fuzzed shapes, warm starts, ragged budgets, stall exits), the
order-sensitive reduction helper, and whole campaigns (batched vs
unbatched, serial vs pooled, store on vs off).
"""

import json

import numpy as np
import pytest

from repro.core import caches
from repro.core.batch import (
    SolveRequest,
    _masked_row_sums,
    answer_request,
    drive,
    fast_solve_iter,
    fast_solve_warm_iter,
    solve_requests,
)
from repro.core.dual import fast_solve, fast_solve_warm
from repro.exec.plan import plan_campaign
from repro.experiments.scenarios import single_fbs_scenario
from repro.sim.checkpoint import run_metrics_to_dict
from repro.sim.lockstep import MAX_BATCH, plan_batch_groups
from repro.sim.runner import MonteCarloRunner
from tests.conftest import make_problem, random_problem
from tests.oracle import answer_request_scalar, unbatched


def assert_same_solution(scalar, batched):
    """Full bit-level equality of two DualSolutions."""
    assert batched.allocation.objective == scalar.allocation.objective
    assert batched.allocation.rho_mbs == scalar.allocation.rho_mbs
    assert batched.allocation.rho_fbs == scalar.allocation.rho_fbs
    assert batched.allocation.mbs_user_ids == scalar.allocation.mbs_user_ids
    assert batched.multipliers == scalar.multipliers
    assert batched.iterations == scalar.iterations
    assert batched.converged == scalar.converged


def random_request(rng):
    """A random problem with occasionally non-default solver parameters."""
    params = {}
    if rng.random() < 0.5:
        params["max_iterations"] = int(rng.integers(1, 500))
    if rng.random() < 0.3:
        params["step_size"] = float(rng.choice([0.005, 0.02, 0.1]))
    if rng.random() < 0.3:
        params["threshold"] = float(rng.choice([1e-4, 1e-5, 1e-7]))
    if rng.random() < 0.3:
        params["decay_after"] = int(rng.integers(50, 400))
    return SolveRequest(problem=random_problem(rng), **params)


def oracle_answers(requests):
    """The scalar oracle's answers, each also matched by answer_request."""
    answers = [answer_request_scalar(r) for r in requests]
    for request, expected in zip(requests, answers):
        assert_same_solution(expected, answer_request(request))
    return answers


class TestRequestDifferential:
    """solve_requests vs the scalar oracle, request by request."""

    def test_empty_batch(self):
        assert solve_requests([]) == []

    def test_single_request_matches_scalar(self):
        # Width 1 takes the scalar-continuation path end to end.
        request = SolveRequest(problem=make_problem(4, n_fbss=2, seed=3))
        assert_same_solution(oracle_answers([request])[0],
                             solve_requests([request])[0])

    def test_fuzzed_mixed_batches_match_scalar(self):
        rng = np.random.default_rng(20260807)
        requests = [random_request(rng) for _ in range(60)]
        scalar = oracle_answers(requests)
        index = 0
        while index < len(requests):
            # Widths below, at, and above the stacked-width cutoff;
            # ragged shapes inside one call exercise the grouping.
            width = int(rng.choice([1, 2, 3, 5, 8]))
            chunk = requests[index:index + width]
            for expected, got in zip(scalar[index:index + width],
                                     solve_requests(chunk)):
                assert_same_solution(expected, got)
            index += width

    def test_warm_started_requests_match_scalar(self):
        rng = np.random.default_rng(11)
        problems = [random_problem(rng) for _ in range(8)]
        cold = oracle_answers([SolveRequest(problem=p) for p in problems])
        warm = [SolveRequest(problem=p,
                             initial_multipliers=dict(c.multipliers))
                for p, c in zip(problems, cold)]
        scalar = oracle_answers(warm)
        for expected, got in zip(scalar, solve_requests(warm)):
            assert_same_solution(expected, got)

    def test_ragged_iteration_budgets_freeze_bit_exactly(self):
        # Same problem, wildly different budgets, one stack: a member
        # frozen at iteration 1 must return the same iterate whether its
        # batch mates run 1 or 400 more rounds (masked compression).
        problem = make_problem(5, n_fbss=2, seed=13)
        requests = [SolveRequest(problem=problem, max_iterations=budget)
                    for budget in (3, 17, 400, 60, 1)]
        scalar = oracle_answers(requests)
        for expected, got in zip(scalar, solve_requests(requests)):
            assert_same_solution(expected, got)

    def test_stall_and_budget_exits_match_scalar(self):
        # An unreachable threshold forces the budget exit and, past
        # decay_after, the limit-cycle stall checks -- the per-member
        # slow path of the stacked loop.
        rng = np.random.default_rng(7)
        requests = [SolveRequest(problem=random_problem(rng),
                                 max_iterations=650, threshold=1e-14,
                                 step_size=0.5, decay_after=100)
                    for _ in range(6)]
        scalar = oracle_answers(requests)
        batched = solve_requests(requests)
        assert any(not s.converged for s in scalar)
        for expected, got in zip(scalar, batched):
            assert_same_solution(expected, got)

    def test_degenerate_single_user_slots(self):
        rng = np.random.default_rng(5)
        requests = [SolveRequest(problem=random_problem(rng, max_users=1,
                                                        max_fbss=1))
                    for _ in range(5)]
        scalar = oracle_answers(requests)
        for expected, got in zip(scalar, solve_requests(requests)):
            assert_same_solution(expected, got)


class TestMaskedRowSums:
    def test_matches_per_row_compressed_sum(self):
        # Exactness is association-sensitive: the helper must replay
        # numpy's sequential (k < 8) and unrolled-by-8 (k >= 8) summation
        # orders, across the n >= 16 fallback boundary too.
        rng = np.random.default_rng(42)
        for _ in range(300):
            b = int(rng.integers(1, 12))
            n = int(rng.integers(1, 20))
            scale = float(rng.choice([1.0, 1e-8, 1e8]))
            values = rng.random((b, n)) * scale
            mask = rng.random((b, n)) < rng.random()
            expected = np.array([values[row, mask[row]].sum()
                                 for row in range(b)])
            assert _masked_row_sums(values, mask).tobytes() \
                == expected.tobytes()

    def test_dense_masks_hit_the_combine_tree(self):
        rng = np.random.default_rng(8)
        for n in range(8, 16):
            values = rng.random((6, n))
            mask = np.ones((6, n), dtype=bool)
            mask[0, 0] = False  # one row in the sequential regime anyway
            expected = np.array([values[row, mask[row]].sum()
                                 for row in range(6)])
            assert _masked_row_sums(values, mask).tobytes() \
                == expected.tobytes()


class TestSolveGenerators:
    def test_drive_fast_solve_iter_matches_inline(self):
        problem = make_problem(4, seed=9)
        expected = fast_solve(problem)
        got = drive(fast_solve_iter(problem))
        assert got == expected

    def test_drive_without_polish(self):
        problem = make_problem(3, seed=2)
        expected = fast_solve(problem, polish=False)
        got = drive(fast_solve_iter(problem, polish=False))
        assert got == expected

    def test_warm_iter_round_trips_the_store(self):
        problem = make_problem(3, seed=4)
        store_gen, store_inline = {}, {}
        got = drive(fast_solve_warm_iter(problem, store_gen))
        expected = fast_solve_warm(problem, store_inline)
        assert got == expected
        assert store_gen == store_inline
        assert store_gen  # the answered multipliers were written back


class TestPlanBatchGroups:
    def _cells(self, n_runs, **overrides):
        config = single_fbs_scenario(n_gops=1,
                                     seed=overrides.pop("seed", 31),
                                     scheme=overrides.pop("scheme",
                                                          "proposed-fast"),
                                     **overrides)
        return plan_campaign(config, n_runs).cells

    def test_replications_of_one_config_share_a_group(self):
        assert [len(g) for g in plan_batch_groups(self._cells(4))] == [4]

    def test_groups_cap_at_max_batch(self):
        groups = plan_batch_groups(self._cells(MAX_BATCH + 3))
        assert [len(g) for g in groups] == [MAX_BATCH, 3]

    def test_unbatchable_scheme_stays_singleton(self):
        groups = plan_batch_groups(self._cells(3, scheme="heuristic1"))
        assert [len(g) for g in groups] == [1, 1, 1]

    def test_seedless_config_stays_singleton(self):
        groups = plan_batch_groups(self._cells(3, seed=None))
        assert [len(g) for g in groups] == [1, 1, 1]

    def test_distinct_config_objects_do_not_merge(self):
        # Equal values, different objects: grouping is by identity (the
        # planner shares one config across a campaign's replications).
        cells = list(self._cells(2)) + list(self._cells(2))
        assert [len(g) for g in plan_batch_groups(cells)] == [2, 2]

    def test_fault_plan_stays_singleton(self):
        # Fault injection hooks are stateful; their cells never batch.
        cells = self._cells(3)
        faulted = cells[0].config.replace(fault_plan=object())
        from dataclasses import replace
        cells = [replace(cell, config=faulted) for cell in cells]
        assert [len(g) for g in plan_batch_groups(cells)] == [1, 1, 1]

    def test_plan_order_is_preserved(self):
        cells = list(self._cells(3, scheme="heuristic1")) \
            + list(self._cells(4))
        groups = plan_batch_groups(cells)
        assert [id(cell) for group in groups for cell in group] \
            == [id(cell) for cell in cells]


def _fingerprint(runs):
    return json.dumps([run_metrics_to_dict(run) for run in runs],
                      sort_keys=True)


def _campaign(config, *, batched, token, n_runs=3):
    caches.scope_to(("batched-diff", token))
    if batched:
        return MonteCarloRunner(config, n_runs=n_runs).run_all()
    with unbatched():
        return MonteCarloRunner(config, n_runs=n_runs).run_all()


class TestCampaignDifferential:
    def test_batched_campaign_bit_identical_to_unbatched(self):
        config = single_fbs_scenario(n_gops=1, seed=1234,
                                     scheme="proposed-fast")
        base = _campaign(config, batched=False, token="unbatched")
        batched = _campaign(config, batched=True, token="batched")
        assert _fingerprint(base) == _fingerprint(batched)

    def test_kernel_refusal_escapes_bit_identically(self, monkeypatch):
        # When the stacked kernel refuses a round, the lockstep driver
        # answers each member with the scalar solver instead; the
        # campaign must not change by a byte.
        from repro.sim import lockstep
        from repro.utils.errors import ReproError

        config = single_fbs_scenario(n_gops=1, seed=56,
                                     scheme="proposed-fast")
        base = _campaign(config, batched=False, token="escape-base")

        def refuse(requests):
            raise ReproError("stacked kernel refused the round")

        monkeypatch.setattr(lockstep, "solve_requests", refuse)
        refused = _campaign(config, batched=True, token="escape-refused")
        assert _fingerprint(base) == _fingerprint(refused)

    def test_solver_counters_match_unbatched(self, monkeypatch):
        # The kernel books its solver metrics on each member's own
        # registry; per-run observability snapshots must be identical to
        # the per-replication path's -- also when the kernel refuses a
        # round and the driver answers each request on its own.
        from repro.obs.metrics import (
            enable_metrics,
            reset_metrics,
            scoped_registry,
        )
        from repro.sim import lockstep
        from repro.utils.errors import ReproError

        def refuse(requests):
            raise ReproError("stacked kernel refused the round")

        config = single_fbs_scenario(n_gops=1, seed=90,
                                     scheme="proposed-fast")
        enable_metrics(True)
        try:
            with scoped_registry():
                base = _campaign(config, batched=False, token="obs-unbatched")
            for refused in (False, True):
                with monkeypatch.context() as patch:
                    if refused:
                        patch.setattr(lockstep, "solve_requests", refuse)
                    with scoped_registry():
                        batched = _campaign(config, batched=True,
                                            token=f"obs-batched-{refused}")
                for expected, got in zip(base, batched):
                    assert expected.obs_snapshot == got.obs_snapshot, refused
                    assert any("repro_solver_solves_total" in key
                               for key in got.obs_snapshot.get("counters",
                                                               {}))
        finally:
            enable_metrics(False)
            reset_metrics()

    def test_monkeypatched_runner_stands_down(self, monkeypatch):
        # Tests that stub the execution seams must keep seeing their
        # stubs: lockstep stands down whenever execute_run or
        # _execute_cell has been replaced.
        from repro.exec import executor as executor_mod
        from repro.sim import runner as runner_mod

        assert not executor_mod._interception_active()
        baseline = runner_mod.execute_run
        monkeypatch.setattr(runner_mod, "execute_run",
                            lambda *args, **kwargs: baseline(*args, **kwargs))
        assert executor_mod._interception_active()
        config = single_fbs_scenario(n_gops=1, seed=17,
                                     scheme="proposed-fast")
        from repro.obs.metrics import (
            enable_metrics,
            reset_metrics,
            scoped_registry,
        )

        enable_metrics(True)
        try:
            with scoped_registry() as registry:
                _campaign(config, batched=True, token="intercepted", n_runs=2)
                counters = registry.counters()
        finally:
            enable_metrics(False)
            reset_metrics()
        assert counters.get("repro_lockstep_groups_total", 0) == 0


@pytest.mark.parametrize("store_on", [True, False])
def test_pool_jobs_invariant_with_batching(tmp_path, monkeypatch, store_on):
    """--jobs 1 and --jobs 2 serialise identically, store on and off.

    Worker pools receive pickled cell chunks; unpickling preserves the
    config sharing inside a chunk, so pool workers form (smaller)
    lockstep groups of their own.  The serialised sweep must not depend
    on any of it.
    """
    from repro.experiments.results_io import sweep_to_dict
    from repro.sim.runner import sweep
    from repro.store.scenario_store import ENV_STORE, reset_default_store

    if not store_on:
        monkeypatch.setenv(ENV_STORE, "0")
    reset_default_store()
    try:
        config = single_fbs_scenario(n_gops=1, seed=77,
                                     scheme="proposed-fast")
        serialised = {}
        for jobs in (1, 2):
            checkpoint = tmp_path / f"jobs{jobs}-store{store_on}.jsonl"
            result = sweep(config, "n_channels", [6], ["proposed-fast"],
                           n_runs=3, jobs=jobs,
                           checkpoint_path=str(checkpoint))
            serialised[jobs] = json.dumps(sweep_to_dict(result),
                                          sort_keys=True)
        assert serialised[1] == serialised[2]
    finally:
        reset_default_store()
