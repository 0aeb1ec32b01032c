"""Cross-module property-based invariants (hypothesis)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.allocator import get_allocator
from repro.core.dual import fast_solve
from repro.core.problem import SlotProblem, UserDemand
from tests.reference import check_feasible, exhaustive_reference_solution


@st.composite
def slot_problems(draw):
    """Random slot problems over 1-5 users and 1-3 FBSs."""
    n_users = draw(st.integers(1, 5))
    n_fbss = draw(st.integers(1, 3))
    users = []
    for j in range(n_users):
        users.append(UserDemand(
            user_id=j,
            fbs_id=draw(st.integers(1, n_fbss)),
            w_prev=draw(st.floats(20.0, 45.0)),
            success_mbs=draw(st.floats(0.0, 1.0)),
            success_fbs=draw(st.floats(0.0, 1.0)),
            r_mbs=draw(st.floats(0.0, 3.0)),
            r_fbs=draw(st.floats(0.0, 2.0)),
        ))

    expected = {i: draw(st.floats(0.0, 5.0)) for i in range(1, n_fbss + 1)}
    return SlotProblem(users=users, expected_channels=expected)


class TestAllocatorInvariants:
    @given(problem=slot_problems())
    @settings(max_examples=60, deadline=None)
    def test_fast_solve_feasible_and_nonnegative(self, problem):
        allocation = fast_solve(problem)
        check_feasible(problem, allocation)
        assert allocation.objective >= -1e-12

    @given(problem=slot_problems())
    @settings(max_examples=40, deadline=None)
    def test_heuristics_feasible(self, problem):
        for scheme in ("heuristic1", "heuristic2"):
            allocation = get_allocator(scheme).allocate(problem)
            check_feasible(problem, allocation)

    @given(problem=slot_problems())
    @settings(max_examples=30, deadline=None)
    def test_proposed_weakly_dominates_heuristics(self, problem):
        exact = exhaustive_reference_solution(problem)
        for scheme in ("heuristic1", "heuristic2"):
            heuristic = get_allocator(scheme).allocate(problem)
            assert heuristic.objective <= exact.objective + 1e-9

    @given(problem=slot_problems(), extra=st.floats(0.1, 3.0))
    @settings(max_examples=30, deadline=None)
    def test_objective_monotone_in_channels(self, problem, extra):
        """Q is nondecreasing in every G_i -- the property the greedy's
        scan reduction and the relaxation bound both rest on."""
        base = exhaustive_reference_solution(problem).objective
        enlarged = problem.with_expected_channels(
            {i: g + extra for i, g in problem.expected_channels.items()})
        bigger = exhaustive_reference_solution(enlarged).objective
        assert bigger >= base - 1e-10


class TestEngineInvariants:
    def test_total_station_time_never_exceeds_one(self, single_config):
        from repro.sim.engine import SimulationEngine
        engine = SimulationEngine(single_config, record_slots=True)
        for _ in range(single_config.n_slots):
            record = engine.step()
            mbs_total = sum(record.allocation.rho_mbs.get(u.user_id, 0.0)
                            for u in record.problem.users
                            if record.allocation.uses_mbs(u.user_id))
            assert mbs_total <= 1.0 + 1e-9
            for fbs_id in record.problem.fbs_ids:
                total = sum(record.allocation.rho_fbs.get(u.user_id, 0.0)
                            for u in record.problem.users_of_fbs(fbs_id)
                            if not record.allocation.uses_mbs(u.user_id))
                assert total <= 1.0 + 1e-9

    def test_psnr_never_exceeds_sequence_ceiling(self, single_config):
        from repro.sim.engine import SimulationEngine
        from repro.video.sequences import get_sequence
        engine = SimulationEngine(single_config)
        ceilings = {
            user.user_id: get_sequence(user.sequence_name).rd.max_psnr_db
            for user in single_config.topology.users
        }
        for _ in range(single_config.n_slots):
            engine.step()
            for user_id, clock in engine.clocks.items():
                assert clock.psnr_db <= ceilings[user_id] + 1e-9
