"""Property-based tests for the greedy channel allocation.

Hypothesis generates random interference graphs, slot problems, and
posteriors; the greedy must always respect the interference constraint,
produce a monotone non-decreasing objective trajectory, and keep its
bound accounting consistent.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bounds import tighter_upper_bound
from repro.core.greedy import GreedyChannelAllocator
from repro.core.problem import SlotProblem, UserDemand
from repro.net.interference import interference_graph_from_edges
from tests.oracle import drive_exact
from tests.reference import closed_form_upper_bound, is_valid_allocation


@st.composite
def greedy_instances(draw):
    """A random (graph, problem, channels, posteriors) instance."""
    n_fbss = draw(st.integers(1, 4))
    fbs_ids = list(range(1, n_fbss + 1))
    edges = [(a, b) for a in fbs_ids for b in fbs_ids
             if a < b and draw(st.booleans())]
    graph = interference_graph_from_edges(fbs_ids, edges)

    n_users = draw(st.integers(1, 5))
    users = [
        UserDemand(
            user_id=j,
            fbs_id=draw(st.sampled_from(fbs_ids)),
            w_prev=draw(st.floats(25.0, 40.0)),
            success_mbs=draw(st.floats(0.3, 1.0)),
            success_fbs=draw(st.floats(0.3, 1.0)),
            r_mbs=draw(st.floats(0.0, 2.0)),
            r_fbs=draw(st.floats(0.0, 1.5)),
        )
        for j in range(n_users)
    ]
    problem = SlotProblem(users=users,
                          expected_channels={i: 0.0 for i in fbs_ids})
    n_channels = draw(st.integers(0, 4))
    channels = list(range(n_channels))
    posteriors = {m: draw(st.floats(0.05, 1.0)) for m in channels}
    return graph, problem, channels, posteriors


class TestGreedyProperties:
    @given(instance=greedy_instances())
    @settings(max_examples=40, deadline=None)
    def test_interference_constraint_always_holds(self, instance):
        graph, problem, channels, posteriors = instance
        allocator = GreedyChannelAllocator(graph)
        result = drive_exact(allocator.allocate_iter(
            problem, channels, posteriors))
        assert is_valid_allocation(graph, result.channel_allocation)

    @given(instance=greedy_instances())
    @settings(max_examples=40, deadline=None)
    def test_gains_non_negative_and_telescoping(self, instance):
        graph, problem, channels, posteriors = instance
        allocator = GreedyChannelAllocator(graph)
        result = drive_exact(allocator.allocate_iter(
            problem, channels, posteriors))
        trace = result.trace
        assert all(step.gain >= 0.0 for step in trace.steps)
        assert trace.q_final >= trace.q_empty - 1e-12
        assert trace.total_gain == pytest.approx(
            trace.q_final - trace.q_empty, abs=1e-9)

    @given(instance=greedy_instances())
    @settings(max_examples=40, deadline=None)
    def test_bound_ordering(self, instance):
        graph, problem, channels, posteriors = instance
        allocator = GreedyChannelAllocator(graph)
        trace = drive_exact(allocator.allocate_iter(
            problem, channels, posteriors)).trace
        assert tighter_upper_bound(trace) >= trace.q_final - 1e-12
        assert closed_form_upper_bound(trace) >= tighter_upper_bound(trace) - 1e-9

    @given(instance=greedy_instances())
    @settings(max_examples=25, deadline=None)
    def test_every_channel_allocated_somewhere_when_useful(self, instance):
        """Table III runs until C is empty: a channel is left unused by an
        FBS only if a neighbour claimed it."""
        graph, problem, channels, posteriors = instance
        allocator = GreedyChannelAllocator(graph)
        result = drive_exact(allocator.allocate_iter(
            problem, channels, posteriors))
        alloc = result.channel_allocation
        for fbs_id in problem.fbs_ids:
            for m in channels:
                if m in alloc[fbs_id]:
                    continue
                blocked = any(m in alloc.get(neighbor, set())
                              for neighbor in graph.neighbors(fbs_id))
                assert blocked, (
                    f"channel {m} unallocated to FBS {fbs_id} without a "
                    f"neighbour conflict")
