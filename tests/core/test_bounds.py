"""Tests for the performance bounds (Theorem 2 and eq. (23))."""

import numpy as np
import pytest

from repro.core.bounds import GreedyStep, GreedyTrace, theorem2_factor, tighter_upper_bound
from repro.core.greedy import GreedyChannelAllocator
from repro.net.interference import interference_graph_from_edges
from repro.utils.errors import ConfigurationError
from tests.core.test_greedy import chain_graph, chain_problem
from tests.oracle import drive_exact
from tests.reference import (
    closed_form_upper_bound,
    exhaustive_channel_optimum,
    theorem2_lower_bound,
    verify_bound_holds,
)


class TestTheorem2Factor:
    def test_chain_graph(self):
        # D_max = 2 (FBS 2) => factor 1/3.
        assert theorem2_factor(chain_graph()) == pytest.approx(1.0 / 3.0)

    def test_edgeless_graph_is_optimal(self):
        graph = interference_graph_from_edges([1, 2, 3], [])
        assert theorem2_factor(graph) == 1.0

    def test_fig2_graph(self):
        graph = interference_graph_from_edges([1, 2, 3, 4], [(3, 4)])
        assert theorem2_factor(graph) == pytest.approx(0.5)


class TestTraceArithmetic:
    def _trace(self):
        steps = (
            GreedyStep(fbs_id=1, channel=0, gain=0.5, degree=1),
            GreedyStep(fbs_id=2, channel=1, gain=0.3, degree=2,
                       conflict_gain_sum=0.2),
        )
        return GreedyTrace(steps=steps, q_empty=1.0, q_final=1.8)

    def test_total_gain(self):
        assert self._trace().total_gain == pytest.approx(0.8)

    def test_bound_term_prefers_evaluated(self):
        trace = self._trace()
        # Step 1 falls back to D * Delta = 0.5; step 2 uses 0.2.
        assert tighter_upper_bound(trace) == pytest.approx(1.8 + 0.5 + 0.2)

    def test_closed_form_ignores_evaluated(self):
        trace = self._trace()
        assert closed_form_upper_bound(trace) == pytest.approx(1.8 + 0.5 + 0.6)
        assert closed_form_upper_bound(trace) >= tighter_upper_bound(trace)

    def test_lower_bound_formula(self):
        trace = self._trace()
        factor = theorem2_factor(chain_graph())
        expected = trace.q_empty + factor * (tighter_upper_bound(trace) - trace.q_empty)
        assert theorem2_lower_bound(trace, chain_graph()) == pytest.approx(expected)

    def test_negative_gain_rejected(self):
        with pytest.raises(ConfigurationError):
            GreedyStep(fbs_id=1, channel=0, gain=-0.5, degree=1)

    def test_negative_conflict_sum_rejected(self):
        with pytest.raises(ConfigurationError):
            GreedyStep(fbs_id=1, channel=0, gain=0.5, degree=1,
                       conflict_gain_sum=-0.1)


class TestBoundsAgainstTrueOptimum:
    """eq. (23) and Theorem 2 must hold against the exhaustive optimum."""

    @pytest.mark.parametrize("seed", range(6))
    def test_bounds_hold_on_random_chain_instances(self, seed):
        graph = chain_graph()
        rng = np.random.default_rng(100 + seed)
        problem = chain_problem(seed=seed, n_users_per_fbs=1)
        channels = [0, 1]
        posteriors = {m: float(0.4 + 0.6 * rng.random()) for m in channels}
        greedy = drive_exact(GreedyChannelAllocator(graph).allocate_iter(
            problem, channels, posteriors))
        _alloc, q_opt = exhaustive_channel_optimum(
            problem, channels, posteriors, graph)
        assert verify_bound_holds(greedy.trace, q_opt, graph)
        # The closed-form (23) is also an upper bound on the optimum.
        assert q_opt <= closed_form_upper_bound(greedy.trace) + 1e-7

    def test_bound_tight_when_no_interference(self):
        graph = interference_graph_from_edges([1, 2, 3], [])
        problem = chain_problem(seed=42, n_users_per_fbs=1)
        posteriors = {0: 0.9, 1: 0.7}
        greedy = drive_exact(GreedyChannelAllocator(graph).allocate_iter(
            problem, [0, 1], posteriors))
        # D_max = 0: every step's bound term vanishes and greedy is optimal.
        assert tighter_upper_bound(greedy.trace) == pytest.approx(
            greedy.trace.q_final)
        _alloc, q_opt = exhaustive_channel_optimum(
            problem, [0, 1], posteriors, graph)
        assert greedy.trace.q_final == pytest.approx(q_opt, abs=1e-7)
