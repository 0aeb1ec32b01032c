"""Bit-identity of the vectorized solver hot path vs the scalar oracle.

The solver's hot-path layers (vectorized water-filling, the compiled
per-assignment solver, the memoized greedy ``Q(c)`` evaluations) all
promise *bit-identical* results to the scalar implementations kept in
``tests/oracle.py``.
These tests enforce that promise on randomized instances, deliberately
including the degenerate corners -- zero weights, zero slopes, subnormal
magnitudes -- where a naive vectorization diverges first.
"""

import math

import numpy as np
import pytest

from repro.core.dual import fast_solve
from repro.core.greedy import GreedyChannelAllocator
from repro.core.reference import (
    compile_slot_problem,
    solve_given_assignment,
    water_filling,
)
from repro.net.interference import interference_graph_from_edges
from tests.conftest import make_problem, random_problem
from tests.core.test_greedy import chain_graph, chain_problem
from tests.oracle import solve_given_assignment_scalar, water_filling_scalar


def random_instance(rng):
    """One water-filling instance, biased toward degenerate corners."""
    n = int(rng.integers(1, 8))
    weights, bases, slopes = [], [], []
    for _ in range(n):
        pick = rng.random()
        if pick < 0.15:
            weights.append(0.0)  # inactive user
        elif pick < 0.25:
            weights.append(float(5e-324 * rng.integers(1, 10)))  # subnormal
        else:
            weights.append(float(rng.random() * 2.0))
        bases.append(float(10.0 ** rng.uniform(-300, 2)))
        pick = rng.random()
        if pick < 0.15:
            slopes.append(0.0)  # dead link
        elif pick < 0.25:
            slopes.append(float(10.0 ** rng.uniform(-310, -290)))
        else:
            slopes.append(float(rng.random() * 1.5))
    return weights, bases, slopes


class TestWaterFillingBitIdentity:
    def test_matches_scalar_oracle_on_random_instances(self):
        rng = np.random.default_rng(2024)
        checked = matched_errors = 0
        for _ in range(500):
            weights, bases, slopes = random_instance(rng)
            try:
                expected = water_filling_scalar(weights, bases, slopes)
            except ZeroDivisionError:
                # The oracle overflows weights/costs for this instance;
                # the vectorized path must fail the same way.
                with pytest.raises(ZeroDivisionError):
                    water_filling(weights, bases, slopes)
                matched_errors += 1
                continue
            rho, value = water_filling(weights, bases, slopes)
            assert rho == expected[0], (weights, bases, slopes)
            assert value == expected[1], (weights, bases, slopes)
            checked += 1
        assert checked >= 300  # the sampler must mostly produce solvable cases

    def test_all_zero_weights(self):
        rho, value = water_filling([0.0, 0.0], [1.0, 1.0], [1.0, 1.0])
        assert rho == [0.0, 0.0] and value == 0.0

    def test_all_zero_slopes(self):
        assert water_filling([1.0, 2.0], [1.0, 1.0], [0.0, 0.0]) == \
            water_filling_scalar([1.0, 2.0], [1.0, 1.0], [0.0, 0.0])

    def test_subnormal_weights_take_fallback_branch(self):
        weights = [5e-324, 1e-323]
        bases = [1.0, 1.0]
        slopes = [1.0, 1.0]
        vectorized = water_filling(weights, bases, slopes)
        assert vectorized == water_filling_scalar(weights, bases, slopes)
        assert math.isclose(sum(vectorized[0]), 1.0)

    def test_validation_errors_identical(self):
        for solve in (water_filling, water_filling_scalar):
            with pytest.raises(ValueError, match="equal length"):
                solve([1.0], [1.0, 2.0], [1.0])
            with pytest.raises(ValueError, match="must be positive"):
                solve([1.0], [0.0], [1.0])
            with pytest.raises(ValueError, match="non-negative"):
                solve([-1.0], [1.0], [1.0])


class TestSolveGivenAssignmentBitIdentity:
    def test_matches_scalar_on_random_problems(self):
        rng = np.random.default_rng(77)
        for _ in range(60):
            problem = random_problem(rng)
            k = len(problem.users)
            mask = int(rng.integers(0, 2 ** k))
            mbs_ids = {u.user_id for i, u in enumerate(problem.users)
                       if mask >> i & 1}
            expected = solve_given_assignment_scalar(problem, mbs_ids)
            got = solve_given_assignment(problem, mbs_ids)
            assert got.mbs_user_ids == expected.mbs_user_ids
            assert got.rho_mbs == expected.rho_mbs
            assert got.rho_fbs == expected.rho_fbs
            assert got.objective == expected.objective

    def test_compiled_group_cache_shares_across_g_variants(self):
        problem = make_problem(4, n_fbss=2, g=2.0, seed=3)
        compiled = compile_slot_problem(problem)
        a = compiled.solve_assignment({0}, {1: 2.0, 2: 2.0})
        # Same MBS set, different FBS G: the MBS group result is reused.
        b = compiled.solve_assignment({0}, {1: 3.0, 2: 2.0})
        assert a.rho_mbs == b.rho_mbs
        expected = solve_given_assignment_scalar(
            problem.with_expected_channels({1: 3.0, 2: 2.0}), {0})
        assert b.objective == expected.objective
        assert b.rho_fbs == expected.rho_fbs


class TestGreedyMemoBitIdentity:
    def test_memoized_matches_exhaustive_scan(self):
        """Memoized greedy == literal exhaustive scan, allocations included."""
        posteriors = {0: 0.95, 1: 0.8, 2: 0.65, 3: 0.5}
        for seed in range(5):
            problem = chain_problem(seed=seed)
            memoized = GreedyChannelAllocator(
                chain_graph(), solver=fast_solve, memoize=True)
            literal = GreedyChannelAllocator(
                chain_graph(), solver=fast_solve, memoize=False,
                exhaustive_scan=True)
            a = memoized.allocate(problem, [0, 1, 2, 3], posteriors)
            b = literal.allocate(problem, [0, 1, 2, 3], posteriors)
            assert a.channel_allocation == b.channel_allocation
            assert a.trace.q_final == pytest.approx(b.trace.q_final, abs=1e-9)
            assert a.allocation.objective == b.allocation.objective

    def test_memo_reduces_default_path_solves(self):
        """With the dual solver, memo hits replace full dual solves."""
        problem = chain_problem(seed=11)
        posteriors = {0: 0.9, 1: 0.7}
        plain = GreedyChannelAllocator(chain_graph(), memoize=False)
        memoized = GreedyChannelAllocator(chain_graph(), memoize=True)
        a = plain.allocate(problem, [0, 1], posteriors)
        b = memoized.allocate(problem, [0, 1], posteriors)
        assert b.channel_allocation == a.channel_allocation
        assert b.evaluations + b.cache_hits >= a.evaluations
        assert b.evaluations <= a.evaluations
