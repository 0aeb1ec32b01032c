"""White-box tests of the dual solver's internals and robustness knobs."""

import numpy as np
import pytest

from repro.core.dual import DualDecompositionSolver
from repro.core.problem import SlotProblem
from repro.core.reference import exhaustive_reference_solution
from repro.utils.errors import ConfigurationError
from tests.conftest import make_problem, make_user, random_problem
from tests.oracle import branch_share as _branch_share
from tests.oracle import solve_scalar


class TestBranchShare:
    def test_closed_form_table1_step3(self):
        # rho = success/lambda - W/slope, inside (0, 1).
        share = _branch_share(np.array([0.8]), 0.05, np.array([30.0]),
                              np.array([2.0]))
        assert share[0] == pytest.approx(0.8 / 0.05 - 30.0 / 2.0)

    def test_clipped_to_unit_interval(self):
        share = _branch_share(np.array([0.9]), 1e-9, np.array([30.0]),
                              np.array([2.0]))
        assert share[0] == 1.0
        share = _branch_share(np.array([0.1]), 10.0, np.array([30.0]),
                              np.array([2.0]))
        assert share[0] == 0.0

    def test_dead_branches_zero(self):
        share = _branch_share(np.array([0.0, 0.8]), 0.01,
                              np.array([30.0, 30.0]), np.array([2.0, 0.0]))
        assert share.tolist() == [0.0, 0.0]

    def test_zero_multiplier_full_slot(self):
        share = _branch_share(np.array([0.5]), 0.0, np.array([30.0]),
                              np.array([2.0]))
        assert share[0] == 1.0

    def test_vector_multiplier(self):
        share = _branch_share(np.array([0.8, 0.8]), np.array([0.05, 10.0]),
                              np.array([30.0, 30.0]), np.array([2.0, 2.0]))
        assert share[0] > 0.0
        assert share[1] == 0.0


class TestStepDecay:
    def test_fixed_step_mode_reproducible(self):
        # decay_after above the budget reproduces the paper's fixed step.
        problem = make_problem(3)
        fixed = DualDecompositionSolver(decay_after=10**6, record_trace=True)
        solution = fixed.solve(problem)
        assert solution.converged

    def test_invalid_decay(self):
        with pytest.raises(ConfigurationError):
            DualDecompositionSolver(decay_after=0)

    def test_stall_exit_bounds_iterations(self):
        # A problem engineered to limit-cycle: two identical users, one
        # per branch's sweet spot, repeatedly flip; the stall exit must
        # terminate well before the 20000 budget.
        rng = np.random.default_rng(5)
        solver = DualDecompositionSolver(max_iterations=20000, decay_after=200)
        worst = 0
        for _ in range(20):
            users = [
                make_user(j, w_prev=26 + 8 * rng.random(),
                          success_mbs=0.5 + 0.5 * rng.random(),
                          success_fbs=0.5 + 0.5 * rng.random(),
                          r_mbs=float(rng.random() * 2),
                          r_fbs=float(rng.random() * 1.5))
                for j in range(8)
            ]
            problem = SlotProblem(users=users, expected_channels={1: 2.0})
            solution = solver.solve(problem)
            worst = max(worst, solution.iterations)
            exact = exhaustive_reference_solution(problem)
            assert solution.allocation.objective >= exact.objective - 1e-3
        assert worst < 5000


class TestDegenerateProblems:
    def test_single_user_zero_bandwidth_everywhere(self):
        user = make_user(r_mbs=0.0, r_fbs=0.0)
        problem = SlotProblem(users=[user], expected_channels={1: 2.0})
        solution = DualDecompositionSolver().solve(problem)
        assert solution.allocation.objective == pytest.approx(0.0)

    def test_zero_success_probabilities(self):
        user = make_user(success_mbs=0.0, success_fbs=0.0)
        problem = SlotProblem(users=[user], expected_channels={1: 2.0})
        solution = DualDecompositionSolver().solve(problem)
        assert solution.allocation.objective == pytest.approx(0.0)

    def test_no_licensed_channels(self):
        problem = make_problem(3, g=0.0)
        solution = DualDecompositionSolver().solve(problem)
        # Everyone who gets anything gets it from the MBS.
        assert all(share == 0.0
                   for share in solution.allocation.rho_fbs.values())
        exact = exhaustive_reference_solution(problem)
        assert solution.allocation.objective == pytest.approx(
            exact.objective, abs=1e-7)

    def test_many_identical_users_split_evenly(self):
        users = [make_user(j, w_prev=30.0, success_mbs=0.1, success_fbs=0.9,
                           r_mbs=0.1, r_fbs=1.0) for j in range(5)]
        problem = SlotProblem(users=users, expected_channels={1: 2.0})
        allocation = DualDecompositionSolver().solve(problem).allocation
        shares = [allocation.rho_fbs.get(j, 0.0) for j in range(5)]
        assert all(s == pytest.approx(0.2, abs=1e-6) for s in shares)

    def test_multipliers_reported_per_station(self):
        problem = make_problem(4, n_fbss=2)
        solution = DualDecompositionSolver().solve(problem)
        assert set(solution.multipliers) == {0, 1, 2}
        assert all(value >= 0.0 for value in solution.multipliers.values())


def _fast_solver(max_iterations):
    """The shared solver a default-parameter fast_solve request uses."""
    from repro.core.batch import _solver_for
    return _solver_for(0.02, 1e-5, max_iterations, 400)


class TestFastSolverCache:
    """The fast_solve solver cache is keyed on the budget and shareable."""

    def test_same_budget_shares_one_instance(self):
        assert _fast_solver(400) is _fast_solver(400)

    def test_distinct_budgets_coexist(self):
        # A single module-global slot would thrash when budgets
        # alternate; the keyed cache must keep both alive simultaneously.
        a = _fast_solver(100)
        b = _fast_solver(200)
        assert a.max_iterations == 100
        assert b.max_iterations == 200
        assert _fast_solver(100) is a
        assert _fast_solver(200) is b

    def test_concurrent_fast_solve_with_alternating_budgets(self):
        from concurrent.futures import ThreadPoolExecutor

        from repro.core.dual import fast_solve

        problem = make_problem(3)
        expected = fast_solve(problem).objective

        def solve(budget):
            return fast_solve(problem, max_iterations=budget).objective

        budgets = [400, 300, 400, 300] * 4
        with ThreadPoolExecutor(max_workers=4) as pool:
            results = list(pool.map(solve, budgets))
        assert all(obj == pytest.approx(expected, abs=1e-9)
                   for obj in results)


def _fuzzed_solvers_and_problems():
    """Fuzzed problems under solver settings that hit every exit.

    Unreachable thresholds force budget exits and, past ``decay_after``,
    the limit-cycle stall checks -- which the crowded single-cell
    problems (eight users, one FBS) trip; the default settings mostly
    converge.
    """
    rng = np.random.default_rng(20261017)
    settings = [
        {},
        {"max_iterations": 7},
        {"max_iterations": 650, "threshold": 1e-14, "step_size": 0.5,
         "decay_after": 100},
        {"max_iterations": 3000, "threshold": 1e-12, "decay_after": 100},
    ]
    cases = []
    for kwargs in settings:
        for _ in range(5):
            cases.append((kwargs, random_problem(rng, max_users=8)))
        for _ in range(4):
            users = [
                make_user(j, w_prev=26 + 8 * rng.random(),
                          success_mbs=0.5 + 0.5 * rng.random(),
                          success_fbs=0.5 + 0.5 * rng.random(),
                          r_mbs=float(rng.random() * 2),
                          r_fbs=float(rng.random() * 1.5))
                for j in range(8)
            ]
            cases.append((kwargs, SlotProblem(users=users,
                                              expected_channels={1: 2.0})))
    return cases


def _assert_same_solution(a, b):
    assert a.allocation.objective == b.allocation.objective
    assert a.allocation.rho_mbs == b.allocation.rho_mbs
    assert a.allocation.rho_fbs == b.allocation.rho_fbs
    assert a.allocation.mbs_user_ids == b.allocation.mbs_user_ids
    assert a.multipliers == b.multipliers
    assert a.iterations == b.iterations
    assert a.converged == b.converged


class TestSingleSolveDifferential:
    def test_matches_scalar_oracle(self):
        exits = set()
        for kwargs, problem in _fuzzed_solvers_and_problems():
            solver = DualDecompositionSolver(**kwargs)
            got = solver.solve(problem)
            _assert_same_solution(solve_scalar(solver, problem), got)
            exits.add((got.converged, got.iterations == solver.max_iterations))
        # Converged, budget-exhausted, and stalled-out solves all occur.
        assert exits >= {(True, False), (False, True), (False, False)}

    def test_trace_on_matches_trace_off(self):
        for kwargs, problem in _fuzzed_solvers_and_problems():
            plain = DualDecompositionSolver(**kwargs).solve(problem)
            traced = DualDecompositionSolver(record_trace=True,
                                             **kwargs).solve(problem)
            _assert_same_solution(plain, traced)
            assert plain.trace is None
            assert traced.trace.shape == (traced.iterations + 1,
                                          len(traced.trace_stations))
            final = [traced.multipliers[station]
                     for station in traced.trace_stations]
            assert traced.trace[-1].tolist() == final
            oracle = solve_scalar(
                DualDecompositionSolver(record_trace=True, **kwargs), problem)
            assert np.array_equal(oracle.trace, traced.trace)
