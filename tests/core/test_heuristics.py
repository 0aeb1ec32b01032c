"""Tests for the comparison schemes (Section V)."""

import pytest

from repro.core.heuristics import (
    EqualAllocationHeuristic,
    MultiuserDiversityHeuristic,
    fbs_condition,
    mbs_condition,
)
from repro.core.problem import SlotProblem
from tests.conftest import make_problem, make_user
from tests.reference import check_feasible


class TestConditions:
    def test_expected_rate_conditions(self):
        user = make_user(success_mbs=0.8, r_mbs=1.0, success_fbs=0.9, r_fbs=0.5)
        assert mbs_condition(user) == pytest.approx(0.8)
        assert fbs_condition(user, 2.0) == pytest.approx(0.9)

    def test_saturated_user_has_zero_condition(self):
        user = make_user(r_mbs=0.0, r_fbs=0.0)
        assert mbs_condition(user) == 0.0
        assert fbs_condition(user, 3.0) == 0.0


class TestEqualAllocation:
    def test_equal_shares_per_station(self):
        users = [
            make_user(0, success_mbs=0.9, r_mbs=2.0, success_fbs=0.5, r_fbs=0.1),
            make_user(1, success_mbs=0.9, r_mbs=2.0, success_fbs=0.5, r_fbs=0.1),
            make_user(2, success_mbs=0.1, r_mbs=0.1, success_fbs=0.9, r_fbs=2.0),
        ]
        problem = SlotProblem(users=users, expected_channels={1: 1.0})
        allocation = EqualAllocationHeuristic().allocate(problem)
        # Users 0, 1 prefer the MBS; user 2 the FBS.
        assert allocation.mbs_user_ids == {0, 1}
        assert allocation.rho_mbs[0] == pytest.approx(0.5)
        assert allocation.rho_mbs[1] == pytest.approx(0.5)
        assert allocation.rho_fbs[2] == pytest.approx(1.0)
        check_feasible(problem, allocation)

    def test_tie_goes_to_fbs(self):
        user = make_user(0, success_mbs=0.8, r_mbs=1.0, success_fbs=0.8, r_fbs=1.0)
        problem = SlotProblem(users=[user], expected_channels={1: 1.0})
        allocation = EqualAllocationHeuristic().allocate(problem)
        assert not allocation.uses_mbs(0)

    def test_feasible_on_random_instances(self):
        import numpy as np
        from tests.conftest import random_problem
        rng = np.random.default_rng(7)
        for _ in range(30):
            problem = random_problem(rng)
            allocation = EqualAllocationHeuristic().allocate(problem)
            check_feasible(problem, allocation)
            assert allocation.objective == allocation.objective  # not NaN

    def test_objective_below_optimum(self):
        from tests.reference import exhaustive_reference_solution
        problem = make_problem(4, n_fbss=2, seed=1)
        heuristic = EqualAllocationHeuristic().allocate(problem)
        optimum = exhaustive_reference_solution(problem)
        assert heuristic.objective <= optimum.objective + 1e-9


class TestMultiuserDiversity:
    def test_single_winner_per_station(self):
        problem = make_problem(6, n_fbss=2, seed=4)
        allocation = MultiuserDiversityHeuristic().allocate(problem)
        check_feasible(problem, allocation)
        # At most one MBS user at full share; one winner per FBS.
        assert len(allocation.rho_mbs) <= 1
        for share in allocation.rho_mbs.values():
            assert share == 1.0
        for fbs_id in problem.fbs_ids:
            winners = [u for u in problem.users_of_fbs(fbs_id)
                       if allocation.rho_fbs.get(u.user_id, 0.0) > 0.0]
            assert len(winners) <= 1

    def test_picks_by_link_quality(self):
        users = [
            make_user(0, success_mbs=0.6, success_fbs=0.7),
            make_user(1, success_mbs=0.9, success_fbs=0.99),
        ]
        problem = SlotProblem(users=users, expected_channels={1: 2.0})
        allocation = MultiuserDiversityHeuristic().allocate(problem)
        # User 1 has the best macro link -> MBS; FBS then serves user 0
        # (single transceiver: the MBS winner cannot also use the FBS).
        assert allocation.rho_mbs == {1: 1.0}
        assert allocation.rho_fbs == {0: 1.0}

    def test_video_agnostic(self):
        # Identical links, wildly different video slopes: the pick must
        # not change (channel-only ranking).
        users_a = [make_user(0, r_fbs=2.0, success_fbs=0.9),
                   make_user(1, r_fbs=0.1, success_fbs=0.8)]
        users_b = [make_user(0, r_fbs=0.1, success_fbs=0.9),
                   make_user(1, r_fbs=2.0, success_fbs=0.8)]
        for users in (users_a, users_b):
            problem = SlotProblem(users=users, expected_channels={1: 2.0})
            allocation = MultiuserDiversityHeuristic().allocate(problem)
            fbs_winners = set(allocation.rho_fbs)
            assert 0 in fbs_winners or allocation.rho_mbs.get(0) == 1.0

    def test_no_channels_no_fbs_service(self):
        problem = make_problem(2, g=0.0)
        allocation = MultiuserDiversityHeuristic().allocate(problem)
        assert not allocation.rho_fbs

    def test_feasible_on_random_instances(self):
        import numpy as np
        from tests.conftest import random_problem
        rng = np.random.default_rng(8)
        for _ in range(30):
            problem = random_problem(rng)
            allocation = MultiuserDiversityHeuristic().allocate(problem)
            check_feasible(problem, allocation)
