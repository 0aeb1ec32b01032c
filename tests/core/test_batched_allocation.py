"""Differential contract of the cross-replication batched allocation.

The stacked kernel (:mod:`repro.core.batch`) and the lockstep driver
(:mod:`repro.sim.lockstep`) exist purely for speed: every request they
answer must be *bit-identical* to the scalar oracle (``tests/oracle.py``)
and to the single-request solver, and every campaign they batch must
serialise byte-for-byte like the per-replication path.
These tests pin that contract at four levels -- individual solve
requests (fuzzed shapes, warm starts, ragged budgets, stall exits),
per-member request streams through a running stack that refills its
rows, the order-sensitive reduction helper, and whole campaigns
(batched vs unbatched, serial vs pooled).
"""

import json
from contextlib import nullcontext

import numpy as np
import pytest

from repro.core.batch import (
    RunningStack,
    SolveRequest,
    answer_request,
    drive,
    fast_solve_iter,
    solve_requests,
)
from repro.core.dual import _masked_row_sums, fast_solve
from repro.core.problem import SlotProblem
from repro.exec.plan import plan_campaign, plan_sweep
from repro.experiments.scenarios import (
    interfering_fbs_scenario,
    single_fbs_scenario,
)
from repro.sim.checkpoint import run_metrics_to_dict
from repro.sim.lockstep import plan_batch_groups
from repro.sim.runner import MonteCarloRunner
from tests.conftest import make_problem, make_user, random_problem
from tests.oracle import answer_request_scalar, clear_solver_caches, unbatched


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
        # Width 1 is a stack of one: the loop a single solve runs.
        request = SolveRequest(problem=make_problem(4, n_fbss=2, seed=3))
        assert_same_solution(oracle_answers([request])[0],
                             solve_requests([request])[0])

    def test_fuzzed_mixed_batches_match_scalar(self):
        rng = np.random.default_rng(20260807)
        requests = [random_request(rng) for _ in range(60)]
        scalar = oracle_answers(requests)
        index = 0
        while index < len(requests):
            # Narrow and wide stacks; ragged shapes inside one call
            # exercise the grouping.
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


def production_problem(rng, n_users, n_fbss, *, dead_fbs):
    """A slot problem of the production size (8-20 users).

    With ``dead_fbs`` most users get ``r_fbs = 0`` and similar, strong
    MBS links: their FBS branch is dead, so they all take a share of
    the MBS -- a dense-MBS row -- and a cell whose users are all dead
    sees no usage and drives its multiplier to zero.
    """
    spread = 0.2 if dead_fbs else 1.0
    users = [
        make_user(j, fbs_id=1 + j % n_fbss,
                  w_prev=30.0 + 4.0 * spread * rng.random(),
                  success_mbs=0.9 + 0.1 * spread * rng.random(),
                  success_fbs=0.4 + 0.6 * rng.random(),
                  r_mbs=(300.0 if dead_fbs else 1.0)
                  * (1.0 + spread * rng.random()),
                  r_fbs=(0.0 if dead_fbs and rng.random() < 0.8
                         else float(rng.random() * 1.5)))
        for j in range(n_users)
    ]
    return SlotProblem(users=users,
                       expected_channels={i: 1.0 + 3.0 * float(rng.random())
                                          for i in range(1, n_fbss + 1)})


def production_batch(rng, width):
    """``width`` same-shape requests, so they share one stack.

    Some requests take a large step, which keeps the multipliers
    moving, so a usage sum one ulp off shows in the answer.
    """
    n_users = int(rng.integers(8, 21))
    n_fbss = int(rng.integers(1, 4))
    return [SolveRequest(problem=production_problem(rng, n_users, n_fbss,
                                                    dead_fbs=rng.random() < 0.6),
                         max_iterations=int(rng.choice([150, 400])),
                         step_size=float(rng.choice([0.02, 0.5])))
            for _ in range(width)]


def warm_restarts(rng, requests, answers):
    """Warm starts from earlier answers, some multipliers pinned to zero."""
    return [SolveRequest(problem=request.problem,
                         max_iterations=request.max_iterations,
                         step_size=request.step_size,
                         initial_multipliers={
                             station: (0.0 if rng.random() < 0.4 else value)
                             for station, value in answer.multipliers.items()})
            for request, answer in zip(requests, answers)]


class TestProductionShapeDifferential:
    """solve_requests vs the scalar oracle at the production problem size.

    The fig6 slots have 9 users; here 8-20.  These are the sizes at
    which numpy's MBS-usage sum stops being a left-to-right sum: rows
    where 8 or more users choose the MBS take its eight-accumulator
    order.
    """

    @pytest.mark.parametrize("width", [1, 2, 3, 10])
    def test_fuzzed_batches_match_scalar(self, width):
        rng = np.random.default_rng(20261017 + width)
        dense_rows = zero_multipliers = 0
        for _ in range(max(2, 12 // width)):
            requests = production_batch(rng, width)
            cold = oracle_answers(requests)
            for expected, got in zip(cold, solve_requests(requests)):
                assert_same_solution(expected, got)
            warm = warm_restarts(rng, requests, cold)
            for expected, got in zip(oracle_answers(warm),
                                     solve_requests(warm)):
                assert_same_solution(expected, got)
            for answer in cold:
                dense_rows += len(answer.allocation.mbs_user_ids) >= 8
                zero_multipliers += 0.0 in answer.multipliers.values()
        # The cases the batch is built for do occur.
        assert dense_rows and zero_multipliers


def run_streams(streams):
    """Answer per-member request streams through one refilling stack.

    Each stream is one member's requests in order: its next request
    joins the running stack as soon as its previous one is answered, so
    rows are refilled at whatever iteration the stack has reached.
    Returns the answers per stream and, per resumption, the stack width
    and the number of streams that still had requests to make.
    """
    stack = RunningStack()
    answers = [[] for _ in streams]
    resumptions = []
    for member, stream in enumerate(streams):
        stack.join(stream[0], member)
    while stack.width:
        unfinished = sum(len(got) < len(stream)
                         for got, stream in zip(answers, streams))
        resumptions.append((stack.width, len(stack), unfinished))
        for member, solution in solve_requests(stack):
            answers[member].append(solution)
            if len(answers[member]) < len(streams[member]):
                stack.join(streams[member][len(answers[member])], member)
    return answers, resumptions


class TestContinuousStack:
    """A refilling stack vs answer_request, request by request.

    Production's 150/400-iteration budgets never reach the decayed step
    or the stall checks (``decay_after`` is 400), so these streams are
    what holds the per-row iteration count to the single solve: rows
    admitted at different stack iterations decay, tick and stall on
    their own clocks.
    """

    def _streams(self, rng, n_members, *, n_users, n_fbss):
        streams = []
        for _ in range(n_members):
            stream = []
            for _ in range(int(rng.integers(3, 9))):
                problem = production_problem(rng, n_users, n_fbss,
                                             dead_fbs=rng.random() < 0.5)
                params = {"max_iterations": int(rng.choice([150, 400, 5000])),
                          "step_size": float(rng.choice([0.02, 0.5]))}
                if rng.random() < 0.5:
                    # Decay and stall checks inside the budget.
                    params.update(decay_after=int(rng.integers(20, 140)),
                                  threshold=float(rng.choice([1e-5, 1e-14])))
                stream.append(SolveRequest(problem=problem, **params))
            streams.append(stream)
        return streams

    def _check(self, streams):
        answers, resumptions = run_streams(streams)
        for stream, got in zip(streams, answers):
            assert len(got) == len(stream)
            for request, solution in zip(stream, got):
                assert_same_solution(answer_request(request), solution)
        return answers, resumptions

    @pytest.mark.parametrize("n_users", [9, 12])
    def test_refilled_rows_match_answer_request(self, n_users):
        rng = np.random.default_rng(20261017 + n_users)
        streams = self._streams(rng, 6, n_users=n_users, n_fbss=3)
        answers, resumptions = self._check(streams)
        solved = [s for got in answers for s in got]
        # No barrier: every resumption runs every unfinished stream.
        assert all(width == unfinished
                   for width, _, unfinished in resumptions)
        # Rows were refilled while others were in flight ...
        assert any(0 < joining < width for width, joining, _ in resumptions)
        # ... and the exits the per-row clock drives all occurred: budget
        # exits, stall exits past decay_after, and dense-MBS rows.
        requests = [r for stream in streams for r in stream]
        exits = {(s.converged, s.iterations == r.max_iterations)
                 for r, s in zip(requests, solved)}
        assert (False, True) in exits and (False, False) in exits
        assert any(len(s.allocation.mbs_user_ids) >= 8 for s in solved)

    def test_warm_starts_with_zeroed_multipliers(self):
        rng = np.random.default_rng(99)
        streams = self._streams(rng, 5, n_users=10, n_fbss=2)
        answers, _ = self._check(streams)
        warm = [warm_restarts(rng, stream, got)
                for stream, got in zip(streams, answers)]
        assert any(0.0 in r.initial_multipliers.values()
                   for stream in warm for r in stream)
        self._check(warm)

    def test_drain_returns_every_unanswered_request(self):
        rng = np.random.default_rng(3)
        streams = self._streams(rng, 4, n_users=9, n_fbss=3)
        stack = RunningStack()
        for member, stream in enumerate(streams):
            stack.join(stream[0], member)
        frozen = {member for member, _ in solve_requests(stack)}
        stack.join(streams[0][1], "late")
        pending = stack.drain()
        assert stack.width == 0 and len(stack) == 0
        assert sorted(map(str, (owner for _, owner in pending))) == sorted(
            map(str, [m for m in range(4) if m not in frozen] + ["late"]))


class TestMaskedRowSums:
    def test_matches_per_row_compressed_sum(self):
        # Exactness is association-sensitive: the dense-row fix-up must
        # give numpy's sequential (k < 8) and unrolled-by-8 (k >= 8)
        # summation orders, for rows of any length.
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

    def test_bincount_is_the_compressed_sum_below_eight(self):
        # The order argument of the stacked loop: one bincount bucket
        # sums left to right from +0.0, which is numpy's compressed
        # ``.sum()`` for fewer than 8 elements and not, in general, for
        # more -- hence the dense-row fix-up.
        rng = np.random.default_rng(9)
        differs = False
        for _ in range(2000):
            k = int(rng.integers(0, 20))
            values = rng.random(k)
            bucket = np.bincount(np.zeros(k, dtype=np.intp), values, 1)
            if k < 8:
                assert bucket.tobytes() == values.sum().tobytes()
            else:
                differs |= bucket[0] != values.sum()
        assert differs


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

    def test_sweep_points_and_schemes_share_a_formation(self):
        # Rows never interact, so every cell of a sweep joins one
        # formation, whatever its point or scheme, in plan order.
        config = single_fbs_scenario(n_gops=1, seed=31)
        cells = plan_sweep(config, "n_channels", [4, 6],
                           ["proposed", "heuristic1", "proposed-fast"],
                           n_runs=2).cells
        assert plan_batch_groups(cells) == [list(cells)]

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


def _campaign(config, *, batched, n_runs=3):
    clear_solver_caches()
    if batched:
        return MonteCarloRunner(config, n_runs=n_runs).run_all()
    with unbatched():
        return MonteCarloRunner(config, n_runs=n_runs).run_all()


class TestCampaignDifferential:
    def test_batched_campaign_bit_identical_to_unbatched(self):
        config = single_fbs_scenario(n_gops=1, seed=1234,
                                     scheme="proposed-fast")
        base = _campaign(config, batched=False)
        batched = _campaign(config, batched=True)
        assert _fingerprint(base) == _fingerprint(batched)

    def test_kernel_refusal_escapes_bit_identically(self, monkeypatch):
        # When the stacked kernel refuses a round, the lockstep driver
        # answers each member with the scalar solver instead; the
        # campaign must not change by a byte.
        from repro.sim import lockstep
        from repro.utils.errors import ReproError

        config = single_fbs_scenario(n_gops=1, seed=56,
                                     scheme="proposed-fast")
        base = _campaign(config, batched=False)

        def refuse(requests):
            raise ReproError("stacked kernel refused the round")

        monkeypatch.setattr(lockstep, "solve_requests", refuse)
        refused = _campaign(config, batched=True)
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
                base = _campaign(config, batched=False)
            for refused in (False, True):
                with monkeypatch.context() as patch:
                    if refused:
                        patch.setattr(lockstep, "solve_requests", refuse)
                    with scoped_registry():
                        batched = _campaign(config, batched=True)
                for expected, got in zip(base, batched):
                    assert expected.obs_snapshot == got.obs_snapshot, refused
                    assert any("repro_solver_solves_total" in key
                               for key in got.obs_snapshot.get("counters",
                                                               {}))
        finally:
            enable_metrics(False)
            reset_metrics()

    def test_interfering_campaign_runs_without_barriers(self, monkeypatch):
        # The greedy Q(c) makes members send different numbers of
        # requests per slot.  The event loop must still match the
        # unbatched run's bytes and obs snapshots, and never resume the
        # kernel with fewer rows than members that have slots left: a
        # member waits for nobody's round or slot.
        from repro.obs.metrics import (
            enable_metrics,
            reset_metrics,
            scoped_registry,
        )
        from repro.sim import lockstep

        config = interfering_fbs_scenario(n_gops=1, seed=4242,
                                          scheme="proposed-fast")
        members = []

        class RecordedMember(lockstep._LockstepMember):
            __slots__ = ()

            def __init__(self, *args):
                super().__init__(*args)
                members.append(self)

        kernel = lockstep.solve_requests
        resumptions = []
        slots_in_flight = []
        per_slot = {}

        def resume(stack):
            unfinished = [m for m in members
                          if m.error is None and m.slots_left > 0]
            resumptions.append((stack.width, len(stack), len(unfinished)))
            slots_in_flight.append({m.engine._slot for m in unfinished})
            answers = kernel(stack)
            for member, _ in answers:
                key = (member.cell.key, member.engine._slot)
                per_slot[key] = per_slot.get(key, 0) + 1
            return answers

        monkeypatch.setattr(lockstep, "_LockstepMember", RecordedMember)
        monkeypatch.setattr(lockstep, "solve_requests", resume)
        enable_metrics(True)
        try:
            with scoped_registry():
                base = _campaign(config, batched=False, n_runs=4)
            with scoped_registry() as registry:
                batched = _campaign(config, batched=True, n_runs=4)
                counters = registry.counters()
        finally:
            enable_metrics(False)
            reset_metrics()
        assert _fingerprint(base) == _fingerprint(batched)
        for expected, got in zip(base, batched):
            assert expected.obs_snapshot == got.obs_snapshot
        assert len(members) == 4
        assert all(width >= unfinished for width, _, unfinished in resumptions)
        # Members send different numbers of requests in one slot, and
        # no slot is a barrier: members run different slots at once.
        counts = {}
        for (key, slot), count in per_slot.items():
            counts.setdefault(slot, set()).add(count)
        assert any(len(seen) > 1 for seen in counts.values())
        assert any(len(slots) > 1 for slots in slots_in_flight)
        # The counters describe the path that ran.
        assert counters["repro_lockstep_rounds_total"] == len(resumptions)
        assert counters["repro_lockstep_batched_solves_total"] == sum(
            joining for _, joining, _ in resumptions)
        solver_iterations = sum(
            got.obs_snapshot["counters"]["repro_solver_iterations_total"]
            for got in batched)
        stacked = counters["repro_lockstep_stacked_iterations_total"]
        assert solver_iterations / 4 <= stacked < solver_iterations


class TestCrossPointFormation:
    """One formation holds every sweep point and scheme."""

    def test_two_points_two_schemes_match_unbatched(self):
        # Each member builds its engine from its own cell's config, so a
        # formation mixing points and schemes must reproduce every cell
        # of the per-replication path, obs snapshot included.
        from repro.exec.executor import SerialExecutor
        from repro.obs.metrics import (
            enable_metrics,
            reset_metrics,
            scoped_registry,
        )

        config = single_fbs_scenario(n_gops=1, seed=2718)
        cells = plan_sweep(config, "n_channels", [4, 6],
                           ["proposed", "proposed-fast"], n_runs=2).cells
        assert [len(group) for group in plan_batch_groups(cells)] == [8]

        def run():
            clear_solver_caches()
            return {outcome.cell.key: outcome.result
                    for outcome in SerialExecutor().run(cells)}

        enable_metrics(True)
        try:
            with scoped_registry(), unbatched():
                base = run()
            with scoped_registry() as registry:
                batched = run()
                counters = registry.counters()
        finally:
            enable_metrics(False)
            reset_metrics()
        assert counters["repro_lockstep_groups_total"] == 1
        assert counters["repro_lockstep_batch_members_total"] == 8
        assert sorted(batched) == sorted(cell.key for cell in cells)
        for key, expected in base.items():
            got = batched[key]
            assert run_metrics_to_dict(got) == run_metrics_to_dict(expected)
            assert got.obs_snapshot == expected.obs_snapshot
            assert got.obs_snapshot

    def test_a_short_member_is_reported_before_the_formation_ends(
            self, monkeypatch):
        from repro.exec.executor import _execute_cell
        from repro.sim import lockstep

        config = single_fbs_scenario(seed=99, scheme="proposed-fast")
        cells = plan_sweep(config, "n_gops", [3, 1], ["proposed-fast"],
                           n_runs=1).cells
        kernel = lockstep.solve_requests
        calls = []

        def counted(stack):
            calls.append(len(calls))
            return kernel(stack)

        monkeypatch.setattr(lockstep, "solve_requests", counted)
        reported = [(key, len(calls)) for key, _, _ in
                    lockstep.run_cells_lockstep(cells, _execute_cell)]
        short, long = cells[1].key, cells[0].key
        assert [key for key, _ in reported] == [short, long]
        # The kernel kept running the long member after the short one
        # was reported.
        assert reported[0][1] < reported[1][1] == len(calls)


def track_engine_builds(monkeypatch):
    """Patch engine construction to record, at each build, the schemes
    of the engines built before it that are still alive."""
    import weakref

    from repro.sim.engine import SimulationEngine

    built = []
    alive_at_build = []
    init = SimulationEngine.__init__

    def tracked(self, config, *args, **kwargs):
        alive_at_build.append([scheme for ref, scheme in built
                               if ref() is not None])
        init(self, config, *args, **kwargs)
        built.append((weakref.ref(self), config.scheme))

    monkeypatch.setattr(SimulationEngine, "__init__", tracked)
    return alive_at_build


class TestLiveMembers:
    """``MAX_BATCH`` caps a formation's live engines, not its size."""

    def test_mixed_formation_caps_live_engines(self, monkeypatch):
        from repro.exec.executor import SerialExecutor
        from repro.obs.metrics import (
            enable_metrics,
            reset_metrics,
            scoped_registry,
        )
        from repro.sim import lockstep

        config = interfering_fbs_scenario(n_gops=1, seed=4242)
        cells = plan_sweep(config, "n_channels", [4, 6],
                           ["proposed-fast", "heuristic1", "graph-coloring"],
                           n_runs=2).cells
        monkeypatch.setattr(lockstep, "MAX_BATCH", 3)

        def run():
            clear_solver_caches()
            return {outcome.cell.key: outcome.result
                    for outcome in SerialExecutor().run(cells)}

        enable_metrics(True)
        try:
            with scoped_registry(), unbatched():
                base = run()
            alive_at_build = track_engine_builds(monkeypatch)
            with scoped_registry() as registry:
                batched = run()
                counters = registry.counters()
        finally:
            enable_metrics(False)
            reset_metrics()
        assert counters["repro_lockstep_groups_total"] == 1
        assert counters["repro_lockstep_batch_members_total"] == len(cells)
        # Each build finds at most two live engines, so at most three
        # are ever live, and the cap is reached.
        assert len(alive_at_build) == len(cells)
        assert max(len(alive) for alive in alive_at_build) == 2
        assert sorted(batched) == sorted(base)
        for key, expected in base.items():
            got = batched[key]
            assert run_metrics_to_dict(got) == run_metrics_to_dict(expected)
            assert got.obs_snapshot == expected.obs_snapshot

    def test_requestless_member_freed_before_next_build(self, monkeypatch):
        from repro.exec.executor import _execute_cell
        from repro.sim import lockstep

        config = single_fbs_scenario(n_gops=1, seed=5)
        cells = plan_sweep(config, "n_channels", [4],
                           ["proposed-fast", "heuristic1"], n_runs=2).cells
        assert [cell.scheme for cell in cells] == [
            "proposed-fast", "proposed-fast", "heuristic1", "heuristic1"]
        alive_at_build = track_engine_builds(monkeypatch)
        yielded_after = {key: len(alive_at_build) for key, _, _ in
                         lockstep.run_cells_lockstep(cells, _execute_cell)}
        # The proposed-fast members wait on their requests; the first
        # heuristic member ran every slot, was yielded, and its engine
        # was gone before the second one was built.
        assert alive_at_build == [
            [], ["proposed-fast"], ["proposed-fast"] * 2,
            ["proposed-fast"] * 2]
        assert yielded_after[cells[2].key] == 3
        assert yielded_after[cells[3].key] == 4


@pytest.mark.parametrize("batched", [True, False])
def test_pool_jobs_invariant_with_batching(tmp_path, batched):
    """--jobs 1 and --jobs 2 serialise identically, batched and unbatched.

    Each pool worker receives a formation of its own, a share of the
    cells.  The serialised sweep must not depend on it.  ``unbatched`` is process-local, so with
    ``batched=False`` the serial run is replication by replication while
    the pool workers may still form lockstep groups.
    """
    from repro.experiments.results_io import sweep_to_dict
    from repro.sim.runner import sweep

    config = single_fbs_scenario(n_gops=1, seed=77, scheme="proposed-fast")
    serialised = {}
    for jobs in (1, 2):
        checkpoint = tmp_path / f"jobs{jobs}-batched{batched}.jsonl"
        with (nullcontext() if batched else unbatched()):
            result = sweep(config, "n_channels", [6], ["proposed-fast"],
                           n_runs=3, jobs=jobs,
                           checkpoint_path=str(checkpoint))
        serialised[jobs] = json.dumps(sweep_to_dict(result), sort_keys=True)
    assert serialised[1] == serialised[2]
