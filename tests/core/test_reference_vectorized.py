"""Bit-identity of the solver hot path vs the scalar oracle.

The solver's hot-path layers (the production water-filling scan, the
compiled per-assignment solver, the greedy's reduced candidate scan)
all promise *bit-identical* results to the scalar
implementations kept in ``tests/oracle.py``.
These tests enforce that promise on randomized instances, deliberately
including the degenerate corners -- zero weights, zero slopes, subnormal
magnitudes -- where a reformulated scan diverges first.  Shares and
objectives are compared by their IEEE-754 bytes, which ``==`` is not:
it equates ``-0.0`` with ``0.0``.
"""

import math
import struct

import numpy as np
import pytest

from repro.core.greedy import GreedyChannelAllocator
from repro.core.problem import SlotProblem
from repro.core.reference import CompiledSlotProblem, compile_slot_problem, solve_given_assignment
from repro.net.interference import interference_graph_from_edges
from tests.conftest import make_problem, make_user, random_problem
from tests.core.test_greedy import chain_graph, chain_problem
from tests.oracle import (
    drive_exact,
    literal_scan,
    solve_given_assignment_scalar,
    water_filling_scalar,
)
from tests.reference import water_filling


def bits(*values):
    """The IEEE-754 bytes of each value: equal iff bit-identical."""
    return [struct.pack("<d", value) for value in values]


def allocation_bits(allocation):
    """An allocation as comparable bytes, dict order included."""
    return (sorted(allocation.mbs_user_ids),
            [(uid, bits(share)) for uid, share in allocation.rho_mbs.items()],
            [(uid, bits(share)) for uid, share in allocation.rho_fbs.items()],
            bits(allocation.objective))


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
                # the production path must fail the same way.
                with pytest.raises(ZeroDivisionError):
                    water_filling(weights, bases, slopes)
                matched_errors += 1
                continue
            rho, value = water_filling(weights, bases, slopes)
            assert bits(*rho) == bits(*expected[0]), (weights, bases, slopes)
            assert bits(value) == bits(expected[1]), (weights, bases, slopes)
            checked += 1
        assert checked >= 300  # the sampler must mostly produce solvable cases

    def test_all_zero_weights(self):
        rho, value = water_filling([0.0, 0.0], [1.0, 1.0], [1.0, 1.0])
        assert bits(*rho, value) == bits(0.0, 0.0, 0.0)

    def test_all_zero_slopes(self):
        rho, value = water_filling([1.0, 2.0], [1.0, 1.0], [0.0, 0.0])
        expected = water_filling_scalar([1.0, 2.0], [1.0, 1.0], [0.0, 0.0])
        assert bits(*rho, value) == bits(*expected[0], expected[1])

    def test_subnormal_weights_take_fallback_branch(self):
        weights = [5e-324, 1e-323]
        bases = [1.0, 1.0]
        slopes = [1.0, 1.0]
        rho, value = water_filling(weights, bases, slopes)
        expected = water_filling_scalar(weights, bases, slopes)
        assert bits(*rho, value) == bits(*expected[0], expected[1])
        assert math.isclose(sum(rho), 1.0)

    def test_tied_breakpoints_keep_index_order(self):
        # Equal breakpoints rank in index order, so the underflow
        # fallback serves the first of the tied users.
        weights = [5e-324, 5e-324, 5e-324]
        rho, value = water_filling(weights, [2.0] * 3, [1.0] * 3)
        expected = water_filling_scalar(weights, [2.0] * 3, [1.0] * 3)
        assert bits(*rho, value) == bits(*expected[0], expected[1])
        assert rho == [1.0, 0.0, 0.0]

    def test_returns_python_floats(self):
        rho, value = water_filling(np.array([0.5, 0.9]), (30, 28),
                                   [np.float64(1.5), 0.7])
        assert type(value) is float
        assert all(type(share) is float for share in rho)

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
            assert allocation_bits(got) == allocation_bits(expected)

    def test_compiled_group_cache_shares_across_g_variants(self):
        problem = make_problem(4, n_fbss=2, g=2.0, seed=3)
        compiled = compile_slot_problem(problem)
        a = compiled.solve_assignment({0}, {1: 2.0, 2: 2.0})
        # Same MBS set, different FBS G: the MBS group result is reused.
        b = compiled.solve_assignment({0}, {1: 3.0, 2: 2.0})
        assert a.rho_mbs == b.rho_mbs
        expected = solve_given_assignment_scalar(
            problem.with_expected_channels({1: 3.0, 2: 2.0}), {0})
        assert allocation_bits(b) == allocation_bits(expected)


def production_problem(rng, *, n_fbss, users_per_fbs):
    """A slot problem shaped like the engine's, with its value ranges.

    PSNR states of 25-45 dB, link success probabilities of 0.3-1, and
    per-slot slopes of up to a few dB; about one user in ten has
    finished its GOP (zero slopes), and a few FBSs have no channel.
    """
    users = []
    for j in range(n_fbss * users_per_fbs):
        done = rng.random() < 0.1
        users.append(make_user(
            user_id=j, fbs_id=1 + j // users_per_fbs,
            w_prev=25.0 + 20.0 * rng.random(),
            success_mbs=0.3 + 0.7 * rng.random(),
            success_fbs=0.3 + 0.7 * rng.random(),
            r_mbs=0.0 if done else float(3.0 * rng.random()),
            r_fbs=0.0 if done else float(1.5 * rng.random())))
    expected = {i: (0.0 if rng.random() < 0.1 else float(4.0 * rng.random()))
                for i in range(1, n_fbss + 1)}
    return SlotProblem(users=users, expected_channels=expected)


class TestCompiledProductionShapes:
    """``CompiledSlotProblem.solve_assignment`` at the sizes that run."""

    def test_fig6_shape_every_assignment(self):
        # Fig. 6: 9 users on 3 FBSs; flip_polish visits every assignment
        # one flip from the dual iterate, so check all 2^9 of them.
        rng = np.random.default_rng(606)
        for _ in range(4):
            problem = production_problem(rng, n_fbss=3, users_per_fbs=3)
            compiled = CompiledSlotProblem(problem.columns)
            ids = [user.user_id for user in problem.users]
            for mask in range(2 ** len(ids)):
                mbs_ids = {uid for k, uid in enumerate(ids) if mask >> k & 1}
                got = compiled.solve_assignment(
                    mbs_ids, problem.expected_channels)
                expected = solve_given_assignment_scalar(problem, mbs_ids)
                assert allocation_bits(got) == allocation_bits(expected), mask

    def test_citygrid_shape(self):
        # The 20x20 city grid: 400 FBSs with 3 users each, and an MBS
        # group of several hundred users.
        rng = np.random.default_rng(2020)
        problem = production_problem(rng, n_fbss=400, users_per_fbs=3)
        ids = [user.user_id for user in problem.users]
        for fraction in (0.0, 0.5, 0.75):
            mbs_ids = {uid for uid in ids if rng.random() < fraction}
            got = CompiledSlotProblem(problem.columns).solve_assignment(
                mbs_ids, problem.expected_channels)
            expected = solve_given_assignment_scalar(problem, mbs_ids)
            assert allocation_bits(got) == allocation_bits(expected)
        assert len(mbs_ids) > 500

    @pytest.mark.parametrize("on_mbs", [False, True])
    def test_underflowed_cost_raises_like_the_oracle(self, on_mbs):
        # w_prev / slope underflows to zero: the oracle's w / cost raises
        # ZeroDivisionError, and so must the compiled path.
        users = [make_user(0, fbs_id=1),
                 make_user(1, fbs_id=1, w_prev=5e-324, r_mbs=1e300,
                           r_fbs=1e300)]
        problem = SlotProblem(users=users, expected_channels={1: 2.0})
        mbs_ids = {0, 1} if on_mbs else set()
        with pytest.raises(ZeroDivisionError):
            solve_given_assignment_scalar(problem, mbs_ids)
        with pytest.raises(ZeroDivisionError):
            CompiledSlotProblem(problem.columns).solve_assignment(
                mbs_ids, problem.expected_channels)


class TestGreedyMemoBitIdentity:
    def test_memoized_matches_exhaustive_scan(self):
        """Reduced scan == literal Table III scan, allocations included."""
        posteriors = {0: 0.95, 1: 0.8, 2: 0.65, 3: 0.5}
        allocator = GreedyChannelAllocator(chain_graph())
        for seed in range(5):
            problem = chain_problem(seed=seed)
            a = drive_exact(allocator.allocate_iter(problem, [0, 1, 2, 3],
                                                    posteriors))
            with literal_scan():
                b = drive_exact(allocator.allocate_iter(
                    problem, [0, 1, 2, 3], posteriors))
            assert a.channel_allocation == b.channel_allocation
            assert a.trace.q_final == pytest.approx(b.trace.q_final, abs=1e-9)
            assert a.allocation.objective == b.allocation.objective
