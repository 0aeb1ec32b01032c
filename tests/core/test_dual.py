"""Tests for the distributed dual-decomposition algorithm (Tables I/II)."""

import numpy as np
import pytest

from repro.core.dual import DualDecompositionSolver, fast_solve, flip_polish
from repro.core.reference import solve_given_assignment
from repro.utils.errors import ConfigurationError, ConvergenceError
from tests.conftest import make_problem, random_problem
from tests.reference import check_feasible, exhaustive_reference_solution


class TestOptimality:
    def test_matches_oracle_on_fixed_instance(self):
        problem = make_problem(3)
        exact = exhaustive_reference_solution(problem)
        solution = DualDecompositionSolver().solve(problem)
        assert solution.allocation.objective == pytest.approx(
            exact.objective, abs=1e-7)

    def test_matches_oracle_on_random_instances(self):
        rng = np.random.default_rng(11)
        misses = 0
        for _ in range(40):
            problem = random_problem(rng)
            exact = exhaustive_reference_solution(problem)
            solution = DualDecompositionSolver().solve(problem)
            check_feasible(problem, solution.allocation)
            if exact.objective - solution.allocation.objective > 1e-6:
                misses += 1
        # The subgradient iteration occasionally stops one assignment
        # flip short of the optimum; it must be rare and tiny.
        assert misses <= 2

    def test_multi_fbs_instances(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            problem = random_problem(rng, max_users=5, max_fbss=3)
            exact = exhaustive_reference_solution(problem)
            solution = DualDecompositionSolver().solve(problem)
            assert solution.allocation.objective <= exact.objective + 1e-9

    def test_binary_assignment_theorem1(self):
        # Every user is on exactly one station with any leftover share zero.
        problem = make_problem(4, n_fbss=2, seed=5)
        allocation = DualDecompositionSolver().solve(problem).allocation
        for user in problem.users:
            on_mbs = allocation.uses_mbs(user.user_id)
            stray = (allocation.rho_fbs if on_mbs else allocation.rho_mbs)
            assert stray.get(user.user_id, 0.0) == 0.0


class TestConvergence:
    def test_reports_convergence(self):
        solution = DualDecompositionSolver().solve(make_problem(3))
        assert solution.converged
        assert solution.iterations < 5000

    def test_trace_recording(self):
        solver = DualDecompositionSolver(record_trace=True)
        solution = solver.solve(make_problem(3))
        assert solution.trace is not None
        assert solution.trace.shape == (solution.iterations + 1, 2)
        assert solution.trace_stations == [0, 1]
        # Multipliers settle: the last steps move less than the first.
        first_move = np.abs(solution.trace[1] - solution.trace[0]).sum()
        last_move = np.abs(solution.trace[-1] - solution.trace[-2]).sum()
        assert last_move <= first_move + 1e-12

    def test_no_trace_by_default(self):
        assert DualDecompositionSolver().solve(make_problem(2)).trace is None

    def test_strict_mode_raises(self):
        solver = DualDecompositionSolver(max_iterations=1, strict=True,
                                         threshold=1e-12)
        with pytest.raises(ConvergenceError):
            solver.solve(make_problem(3))

    def test_strict_error_carries_iterations_and_residual(self):
        solver = DualDecompositionSolver(max_iterations=3, strict=True,
                                         threshold=1e-12)
        with pytest.raises(ConvergenceError) as excinfo:
            solver.solve(make_problem(3))
        error = excinfo.value
        assert error.iterations == 3
        assert error.residual is not None
        assert np.isfinite(error.residual)
        # The residual is the squared multiplier movement that failed the
        # stopping test, so it must exceed the (tiny) threshold's bar.
        assert error.residual > 0.0

    def test_non_strict_returns_converged_false_instead_of_raising(self):
        # Same budget-starved configuration as the strict test: with
        # strict=False the solver must hand back its best effort.
        solver = DualDecompositionSolver(max_iterations=3, threshold=1e-12)
        solution = solver.solve(make_problem(3))
        assert solution.converged is False
        assert solution.iterations == 3
        check_feasible(make_problem(3), solution.allocation)

    def test_non_strict_returns_best_effort(self):
        solver = DualDecompositionSolver(max_iterations=2)
        solution = solver.solve(make_problem(3))
        assert not solution.converged
        check_feasible(make_problem(3), solution.allocation)

    def test_warm_start_accelerates(self):
        problem = make_problem(4, seed=8)
        cold = DualDecompositionSolver().solve(problem)
        warm = DualDecompositionSolver().solve(
            problem, initial_multipliers=cold.multipliers)
        assert warm.iterations <= cold.iterations
        assert warm.allocation.objective == pytest.approx(
            cold.allocation.objective, abs=1e-9)

    def test_scale_invariance(self):
        # Problem (12) is invariant to common (W, R) rescaling; the solver
        # must find the same shares.
        base = make_problem(3, seed=2)
        from repro.core.problem import SlotProblem, UserDemand
        scaled_users = [
            UserDemand(user_id=u.user_id, fbs_id=u.fbs_id, w_prev=10 * u.w_prev,
                       success_mbs=u.success_mbs, success_fbs=u.success_fbs,
                       r_mbs=10 * u.r_mbs, r_fbs=10 * u.r_fbs)
            for u in base.users
        ]
        scaled = SlotProblem(users=scaled_users,
                             expected_channels=base.expected_channels)
        rho_base = DualDecompositionSolver().solve(base).allocation
        rho_scaled = DualDecompositionSolver().solve(scaled).allocation
        for user in base.users:
            assert rho_base.time_share(user) == pytest.approx(
                rho_scaled.time_share(user), abs=1e-5)


class TestValidation:
    @pytest.mark.parametrize("kwargs", [
        {"step_size": 0.0},
        {"threshold": 0.0},
        {"max_iterations": 0},
    ])
    def test_invalid_parameters(self, kwargs):
        with pytest.raises(ConfigurationError):
            DualDecompositionSolver(**kwargs)


class TestFastSolve:
    def test_matches_oracle_on_random_instances(self):
        rng = np.random.default_rng(13)
        for _ in range(60):
            problem = random_problem(rng)
            exact = exhaustive_reference_solution(problem)
            fast = fast_solve(problem)
            check_feasible(problem, fast)
            assert fast.objective == pytest.approx(exact.objective, abs=1e-7)

    def test_unpolished_is_never_better_than_polished(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            problem = random_problem(rng)
            raw = fast_solve(problem, polish=False)
            polished = fast_solve(problem, polish=True)
            assert polished.objective >= raw.objective - 1e-12


class TestFlipPolish:
    def test_fixes_bad_assignment(self):
        problem = make_problem(3, seed=6)
        exact = exhaustive_reference_solution(problem)
        # Start from the worst possible binary assignment.
        import itertools
        ids = [u.user_id for u in problem.users]
        worst = min(
            (solve_given_assignment(problem, {i for i, on in zip(ids, p) if on})
             for p in itertools.product((False, True), repeat=3)),
            key=lambda a: a.objective)
        polished = flip_polish(problem, worst)
        assert polished.objective >= worst.objective
        assert polished.objective == pytest.approx(exact.objective, abs=1e-7)

    def test_idempotent_on_optimum(self):
        problem = make_problem(3)
        exact = exhaustive_reference_solution(problem)
        again = flip_polish(problem, exact)
        assert again.objective == pytest.approx(exact.objective, abs=1e-12)
