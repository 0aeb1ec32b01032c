"""Fault-injection tests of the per-slot solver fallback chain.

Acceptance path (a): a forced non-convergent slot completes via the
heuristic fallback with a recorded ``DegradationEvent``.
"""

from collections import Counter

import numpy as np
import pytest

from repro.core.heuristics import EqualAllocationHeuristic
from repro.core.problem import Allocation
from repro.sim import MonteCarloRunner, SimulationEngine
from repro.sim.fallback import DegradationEvent, FallbackChain, check_allocation
from repro.testing.faults import FaultPlan
from repro.utils.errors import AllocationFailedError, ConvergenceError, ReproError
from tests.conftest import make_problem, random_problem
from tests.oracle import check_allocation_scalar


class _AlwaysRaises:
    """Allocator stub that fails with a configurable error."""

    def __init__(self, exc):
        self.exc = exc
        self.calls = 0

    def allocate(self, problem):
        self.calls += 1
        raise self.exc


class _ReturnsGarbage:
    """Allocator stub that returns a NaN-poisoned allocation."""

    def allocate(self, problem):
        return Allocation(
            mbs_user_ids={problem.users[0].user_id},
            rho_mbs={problem.users[0].user_id: float("nan")},
            rho_fbs={})


class TestCheckAllocation:
    def test_accepts_heuristic_output(self):
        problem = make_problem()
        allocation = EqualAllocationHeuristic().allocate(problem)
        assert check_allocation(problem, allocation) is None

    def test_rejects_nan_share(self):
        problem = make_problem()
        allocation = _ReturnsGarbage().allocate(problem)
        assert check_allocation(problem, allocation) == "non-finite"

    def test_rejects_overfull_station(self):
        problem = make_problem(n_users=3)
        uids = [u.user_id for u in problem.users]
        allocation = Allocation(
            mbs_user_ids=set(uids),
            rho_mbs={uid: 0.9 for uid in uids},
            rho_fbs={}, objective=0.0)
        assert check_allocation(problem, allocation) == "infeasible"


def random_allocation(rng, problem):
    """An allocation near the feasibility boundary, often past it.

    Each station's shares sum to about one slot, within a few multiples
    of the tolerance either way; whole cells sit on the MBS, and shares
    may be non-finite, negative, above one, stray (on the station the
    user did not select) or keyed by unknown users.
    """
    users = problem.users
    mbs_ids = {u.user_id for u in users if rng.random() < 0.3}
    if rng.random() < 0.3:
        # Every user of one cell on the MBS.
        cell = int(rng.choice(problem.fbs_ids))
        mbs_ids |= {u.user_id for u in users if u.fbs_id == cell}

    def fill(served):
        scale = 1.0 + float(rng.choice([0.0, 5e-7, -5e-7, 2e-6, 1e-3]))
        return {uid: scale * float(rng.dirichlet(np.ones(len(served)))[k])
                for k, uid in enumerate(served)} if served else {}

    rho_mbs = fill([u.user_id for u in users if u.user_id in mbs_ids])
    rho_fbs = {}
    for fbs_id in problem.fbs_ids:
        rho_fbs.update(fill([u.user_id for u in users
                             if u.fbs_id == fbs_id and u.user_id not in mbs_ids]))
    for _ in range(int(rng.integers(0, 3))):
        # Stray shares: on the other station, or for unknown users.
        uid = int(rng.integers(0, len(users) + 3))
        target = rho_fbs if uid in mbs_ids else rho_mbs
        target[uid] = float(rng.random())
    objective = 1.0
    pick = rng.random()
    if pick < 0.1:
        target = rho_mbs if rho_mbs and rng.random() < 0.5 else rho_fbs
        if target:
            uid = list(target)[int(rng.integers(0, len(target)))]
            target[uid] = float(rng.choice([np.nan, np.inf, -np.inf, -0.1, 1.5]))
    elif pick < 0.15:
        objective = float(rng.choice([np.nan, np.inf]))
    return Allocation(mbs_user_ids=mbs_ids, rho_mbs=rho_mbs,
                      rho_fbs=rho_fbs, objective=objective)


class TestCheckAllocationDifferential:
    """``check_allocation`` vs the explicit per-FBS reference."""

    def test_verdicts_match_on_random_allocations(self):
        rng = np.random.default_rng(1234)
        verdicts = Counter()
        for _ in range(3000):
            problem = random_problem(rng, max_users=12, max_fbss=5)
            allocation = random_allocation(rng, problem)
            verdict = check_allocation(problem, allocation)
            assert verdict == check_allocation_scalar(problem, allocation)
            verdicts[verdict] += 1
        # Every verdict occurs, the cell-load one many times.
        assert verdicts[None] > 300
        assert verdicts["non-finite"] > 100
        assert verdicts["infeasible"] > 300

    def test_overfull_cell_beside_an_all_mbs_cell(self):
        problem = make_problem(n_users=6, n_fbss=3)
        # FBS 1 (users 0, 3) is all on the MBS; FBS 2 is over-full.
        allocation = Allocation(
            mbs_user_ids={0, 3}, rho_mbs={0: 0.5, 3: 0.5},
            rho_fbs={1: 0.6, 4: 0.4 + 2e-6, 2: 0.5, 5: 0.5}, objective=0.0)
        assert check_allocation(problem, allocation) == "infeasible"
        assert check_allocation_scalar(problem, allocation) == "infeasible"
        allocation.rho_fbs[4] = 0.4
        assert check_allocation(problem, allocation) is None
        assert check_allocation_scalar(problem, allocation) is None


class TestFallbackChain:
    def test_happy_path_records_nothing(self):
        problem = make_problem()
        chain = FallbackChain([("heuristic1", EqualAllocationHeuristic())])
        allocation, events = chain.allocate(problem, slot=0)
        assert events == []
        assert check_allocation(problem, allocation) is None

    def test_convergence_error_degrades_with_residual(self):
        problem = make_problem()
        primary = _AlwaysRaises(ConvergenceError(
            "did not converge", iterations=500, residual=0.125))
        chain = FallbackChain([
            ("proposed", primary),
            ("heuristic1", EqualAllocationHeuristic()),
        ])
        allocation, events = chain.allocate(problem, slot=7)
        assert primary.calls == 1
        assert len(events) == 1
        event = events[0]
        assert event.slot == 7
        assert event.cause == "convergence"
        assert event.allocator == "proposed"
        assert event.fallback == "heuristic1"
        assert event.residual == 0.125
        assert check_allocation(problem, allocation) is None

    def test_garbage_allocation_degrades(self):
        problem = make_problem()
        chain = FallbackChain([
            ("proposed", _ReturnsGarbage()),
            ("heuristic1", EqualAllocationHeuristic()),
        ])
        _, events = chain.allocate(problem, slot=3)
        assert [e.cause for e in events] == ["non-finite"]

    def test_injected_nonconvergence_skips_primary(self):
        problem = make_problem()
        primary = _AlwaysRaises(ConvergenceError("never called"))
        chain = FallbackChain([
            ("proposed", primary),
            ("heuristic1", EqualAllocationHeuristic()),
        ])
        _, events = chain.allocate(problem, slot=0, inject_nonconvergence=True)
        assert primary.calls == 0
        assert events[0].cause == "injected-nonconvergence"

    def test_exhausted_chain_raises_with_events(self):
        problem = make_problem()
        chain = FallbackChain([
            ("proposed", _AlwaysRaises(ConvergenceError("no"))),
            ("heuristic1", _ReturnsGarbage()),
        ])
        with pytest.raises(AllocationFailedError) as excinfo:
            chain.allocate(problem, slot=2)
        assert [e.cause for e in excinfo.value.events] == [
            "convergence", "non-finite"]
        # The failure is still a ReproError, so run isolation catches it.
        assert isinstance(excinfo.value, ReproError)


class TestEngineDegradation:
    """Acceptance (a): engine end-to-end via the fault harness."""

    def test_forced_nonconvergent_slot_completes_via_fallback(self, single_config):
        plan = FaultPlan(nonconvergent_slots={2})
        engine = SimulationEngine(single_config.replace(fault_plan=plan))
        metrics = engine.run()
        assert engine.slot == single_config.n_slots  # run completed
        events = [e for e in metrics.degradation_events
                  if e.cause == "injected-nonconvergence"]
        assert len(events) == 1
        assert events[0].slot == 2
        assert events[0].allocator == single_config.scheme
        assert events[0].fallback == "heuristic1"
        # Degraded runs still produce usable quality numbers.
        assert metrics.mean_psnr > 0

    def test_degradation_does_not_crash_summary(self, single_config):
        plan = FaultPlan(nonconvergent_slots={0, 5})
        config = single_config.replace(fault_plan=plan)
        summary = MonteCarloRunner(config, n_runs=2).summary()
        assert summary.n_failed == 0
        # Two injected slots per run, two runs.
        assert summary.n_degraded_slots == 4

    def test_healthy_run_records_no_events(self, single_config):
        metrics = SimulationEngine(single_config).run()
        assert metrics.degradation_events == ()
        assert metrics.n_degraded == 0

    def test_event_round_trips_through_dict(self):
        event = DegradationEvent(slot=4, cause="convergence",
                                 allocator="proposed", fallback="heuristic1",
                                 residual=1e-3, detail="x")
        assert DegradationEvent.from_dict(event.to_dict()) == event
