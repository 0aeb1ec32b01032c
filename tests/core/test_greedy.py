"""Tests for the greedy channel allocation (Table III)."""

import numpy as np
import pytest

from repro.core.greedy import GreedyChannelAllocator
from repro.core.problem import SlotProblem
from repro.net.interference import interference_graph_from_edges
from repro.utils.errors import ConfigurationError
from tests.conftest import make_problem, make_user
from tests.oracle import drive_exact, literal_scan
from tests.reference import exhaustive_channel_optimum, is_valid_allocation


def chain_graph():
    return interference_graph_from_edges([1, 2, 3], [(1, 2), (2, 3)])


def chain_problem(seed=0, n_users_per_fbs=2):
    rng = np.random.default_rng(seed)
    users = []
    uid = 0
    for fbs_id in (1, 2, 3):
        for _ in range(n_users_per_fbs):
            users.append(make_user(
                uid, fbs_id=fbs_id,
                w_prev=26.0 + 8.0 * rng.random(),
                success_mbs=0.5 + 0.4 * rng.random(),
                success_fbs=0.6 + 0.4 * rng.random(),
                r_mbs=float(0.5 + rng.random()),
                r_fbs=float(0.5 + rng.random()),
            ))
            uid += 1
    return SlotProblem(users=users, expected_channels={1: 0.0, 2: 0.0, 3: 0.0})


class TestConstraints:
    def test_allocation_respects_interference_graph(self):
        graph = chain_graph()
        allocator = GreedyChannelAllocator(graph)
        problem = chain_problem()
        posteriors = {0: 0.9, 1: 0.8, 2: 0.7}
        result = allocator.allocate(problem, [0, 1, 2], posteriors)
        assert is_valid_allocation(graph, result.channel_allocation)

    def test_non_adjacent_fbss_share_channels(self):
        # FBS 1 and 3 are non-adjacent in the chain: with one very good
        # channel both should eventually hold it.
        allocator = GreedyChannelAllocator(chain_graph())
        problem = chain_problem(seed=1)
        result = allocator.allocate(problem, [0], {0: 0.95})
        alloc = result.channel_allocation
        assert 0 in alloc[1] and 0 in alloc[3]
        assert 0 not in alloc[2]

    def test_expected_channels_are_posterior_sums(self):
        allocator = GreedyChannelAllocator(chain_graph())
        problem = chain_problem(seed=2)
        posteriors = {0: 0.9, 1: 0.6}
        result = allocator.allocate(problem, [0, 1], posteriors)
        for fbs_id, channels in result.channel_allocation.items():
            expected = sum(posteriors[m] for m in channels)
            assert result.expected_channels[fbs_id] == pytest.approx(expected)

    def test_empty_access_set(self):
        allocator = GreedyChannelAllocator(chain_graph())
        problem = chain_problem(seed=3)
        result = allocator.allocate(problem, [], {})
        assert all(not channels for channels in result.channel_allocation.values())
        assert result.trace.q_final == pytest.approx(result.trace.q_empty)

    def test_missing_posterior_rejected(self):
        allocator = GreedyChannelAllocator(chain_graph())
        with pytest.raises(ConfigurationError):
            allocator.allocate(chain_problem(), [0], {})

    def test_fbs_missing_from_graph_rejected(self):
        graph = interference_graph_from_edges([1, 2], [(1, 2)])
        allocator = GreedyChannelAllocator(graph)
        with pytest.raises(ConfigurationError):
            allocator.allocate(chain_problem(), [0], {0: 0.9})


class TestTrace:
    def test_gains_telescoping(self):
        allocator = GreedyChannelAllocator(chain_graph())
        problem = chain_problem(seed=4)
        posteriors = {0: 0.9, 1: 0.7, 2: 0.5}
        result = allocator.allocate(problem, [0, 1, 2], posteriors)
        trace = result.trace
        assert trace.total_gain == pytest.approx(trace.q_final - trace.q_empty)
        assert all(step.gain >= 0.0 for step in trace.steps)

    def test_degrees_match_graph(self):
        graph = chain_graph()
        allocator = GreedyChannelAllocator(graph)
        result = allocator.allocate(chain_problem(seed=5), [0, 1], {0: 0.9, 1: 0.8})
        for step in result.trace.steps:
            assert step.degree == graph.degree(step.fbs_id)

    def test_conflict_gains_recorded_and_capped(self):
        allocator = GreedyChannelAllocator(chain_graph())
        result = allocator.allocate(chain_problem(seed=6), [0, 1], {0: 0.9, 1: 0.8})
        for step in result.trace.steps:
            assert step.conflict_gain_sum is not None
            assert step.conflict_gain_sum <= step.degree * step.gain + 1e-12


class TestScanReduction:
    def test_matches_exhaustive_scan(self):
        """The best-channel-per-FBS shortcut must match the literal scan."""
        problem = chain_problem(seed=7)
        posteriors = {0: 0.95, 1: 0.8, 2: 0.65, 3: 0.5}
        allocator = GreedyChannelAllocator(chain_graph())
        a = drive_exact(allocator.allocate_iter(problem, [0, 1, 2, 3],
                                                posteriors))
        with literal_scan():
            b = drive_exact(allocator.allocate_iter(problem, [0, 1, 2, 3],
                                                    posteriors))
        assert a.channel_allocation == b.channel_allocation
        assert a.trace.q_final == pytest.approx(b.trace.q_final, abs=1e-9)
        assert a.evaluations <= b.evaluations


class TestNearOptimality:
    def test_within_theorem2_factor_of_channel_optimum(self):
        graph = chain_graph()
        rng = np.random.default_rng(15)
        for seed in range(5):
            problem = chain_problem(seed=seed, n_users_per_fbs=1)
            channels = [0, 1]
            posteriors = {m: float(0.4 + 0.6 * rng.random()) for m in channels}
            greedy = drive_exact(GreedyChannelAllocator(graph).allocate_iter(
                problem, channels, posteriors))
            _best, q_opt = exhaustive_channel_optimum(
                problem, channels, posteriors, graph)
            factor = 1.0 / (1.0 + 2)  # D_max = 2 in the chain
            incremental_greedy = greedy.trace.q_final - greedy.trace.q_empty
            incremental_opt = q_opt - greedy.trace.q_empty
            assert incremental_greedy >= factor * incremental_opt - 1e-9
            assert greedy.trace.q_final <= q_opt + 1e-7

    def test_exhaustive_guard(self):
        graph = chain_graph()
        with pytest.raises(ConfigurationError):
            exhaustive_channel_optimum(
                chain_problem(), list(range(10)), {m: 0.5 for m in range(10)},
                graph, max_pairs=8)
