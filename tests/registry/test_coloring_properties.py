"""Property-based tests for the interference colouring.

Hypothesis generates random interference graphs and channel states and
checks the two invariants the graph-coloring scheme rests on:

* the colouring is *proper* -- no two adjacent clusters share a colour
  (and hence never a channel), and
* the greedy colouring never needs more than ``max_degree + 1`` colours
  (the classical greedy bound).
"""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.coloring import interference_coloring
from repro.net.interference import interference_graph_from_edges, max_degree
from tests.reference import color_partition_allocation, is_valid_allocation


@st.composite
def interference_graphs(draw):
    """A random graph over 2..12 FBS ids with a sampled edge subset."""
    n = draw(st.integers(min_value=2, max_value=12))
    fbs_ids = list(range(1, n + 1))
    candidates = list(itertools.combinations(fbs_ids, 2))
    edges = draw(st.lists(st.sampled_from(candidates), unique=True,
                          max_size=len(candidates)))
    return interference_graph_from_edges(fbs_ids, edges)


@given(graph=interference_graphs())
@settings(max_examples=50, deadline=None)
def test_coloring_is_proper(graph):
    colors = interference_coloring(graph)
    assert set(colors) == set(graph.nodes)
    for u, v in graph.edges:
        assert colors[u] != colors[v], (
            f"adjacent clusters {u} and {v} share colour {colors[u]}")


@given(graph=interference_graphs())
@settings(max_examples=50, deadline=None)
def test_coloring_respects_greedy_bound(graph):
    colors = interference_coloring(graph)
    n_colors = max(colors.values()) + 1 if colors else 0
    assert n_colors <= max_degree(graph) + 1


@given(graph=interference_graphs(),
       channel_bits=st.lists(st.booleans(), min_size=1, max_size=8),
       posterior_seed=st.integers(min_value=0, max_value=2**16))
@settings(max_examples=50, deadline=None)
def test_color_partition_allocation_is_conflict_free(
        graph, channel_bits, posterior_seed):
    """The channel dealing built on the colouring never hands one
    channel to two adjacent clusters, for any access set / posteriors."""
    available = [m for m, open_ in enumerate(channel_bits) if open_]
    # Deterministic pseudo-posteriors in (0, 1), varied by the seed.
    posteriors = {m: ((posterior_seed + 7919 * m) % 97 + 1) / 99.0
                  for m in range(len(channel_bits))}
    fbs_ids = sorted(graph.nodes)
    allocation = color_partition_allocation(
        graph, fbs_ids, available, posteriors)
    assert set(allocation) == set(fbs_ids)
    assert is_valid_allocation(graph, allocation)
    for channels in allocation.values():
        assert channels <= set(available)
