"""Tests for the exhaustive reference oracle."""

import pytest

from repro.core.reference import solve_given_assignment
from repro.utils.errors import ConfigurationError
from tests.conftest import make_problem, make_user
from tests.reference import check_feasible, exhaustive_reference_solution
from repro.core.problem import SlotProblem


class TestSolveGivenAssignment:
    def test_assignment_respected(self):
        problem = make_problem(3)
        allocation = solve_given_assignment(problem, {0, 2})
        assert allocation.mbs_user_ids == {0, 2}
        assert set(allocation.rho_mbs) == {0, 2}
        assert set(allocation.rho_fbs) == {1}
        check_feasible(problem, allocation)

    def test_unknown_user_rejected(self):
        problem = make_problem(2)
        with pytest.raises(ConfigurationError):
            solve_given_assignment(problem, {99})

    def test_empty_assignment_all_on_fbs(self):
        problem = make_problem(3)
        allocation = solve_given_assignment(problem, set())
        assert not allocation.rho_mbs
        assert sum(allocation.rho_fbs.values()) == pytest.approx(1.0)

    def test_per_fbs_budgets_independent(self):
        problem = make_problem(4, n_fbss=2)
        allocation = solve_given_assignment(problem, set())
        for fbs_id in (1, 2):
            cell = problem.users_of_fbs(fbs_id)
            total = sum(allocation.rho_fbs[u.user_id] for u in cell)
            assert total == pytest.approx(1.0)

    def test_zero_g_fbs_gets_zero_value_users(self):
        users = [make_user(0, success_fbs=0.9, r_fbs=1.0)]
        problem = SlotProblem(users=users, expected_channels={1: 0.0})
        allocation = solve_given_assignment(problem, set())
        assert allocation.objective == pytest.approx(0.0)


class TestExhaustive:
    def test_beats_every_assignment(self):
        problem = make_problem(4, n_fbss=2, seed=3)
        best = exhaustive_reference_solution(problem)
        import itertools
        ids = [u.user_id for u in problem.users]
        for pattern in itertools.product((False, True), repeat=4):
            assignment = {i for i, on in zip(ids, pattern) if on}
            candidate = solve_given_assignment(problem, assignment)
            assert candidate.objective <= best.objective + 1e-12

    def test_guard_against_large_instances(self):
        problem = make_problem(5)
        with pytest.raises(ConfigurationError):
            exhaustive_reference_solution(problem, max_users=4)

    def test_single_user(self):
        problem = make_problem(1, seed=9)
        best = exhaustive_reference_solution(problem)
        check_feasible(problem, best)
        assert best.objective >= 0.0
