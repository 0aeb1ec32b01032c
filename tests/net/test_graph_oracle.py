"""The in-repo interference graph and colouring, held to networkx.

:class:`~repro.net.interference.InterferenceGraph` and
:func:`~repro.core.coloring.interference_coloring` replace ``nx.Graph``
and ``nx.greedy_color(strategy="largest_first")``.  networkx stays a
test-only dependency so these tests can pin the port to it: every
graph here is built twice from one node list and one edge list, and
both must agree on iteration orders, degrees, the colouring (visit
order included), the Theorem 2 factor, the independent sets and the
config hash.
"""

import networkx as nx
import numpy as np
import pytest

from repro.core.bounds import theorem2_factor
from repro.core.coloring import interference_coloring
from repro.experiments.citygrid import _grid_edges, city_grid_scenario
from repro.experiments.scenarios import interfering_fbs_scenario
from repro.net.interference import interference_graph_from_edges, max_degree
from repro.store.confighash import hash_value
from tests.reference import _independent_sets


def twins(nodes, edges):
    """The same graph as an ``InterferenceGraph`` and an ``nx.Graph``."""
    reference = nx.Graph()
    reference.add_nodes_from(nodes)
    for i, j in edges:
        reference.add_edge(i, j)
    return interference_graph_from_edges(nodes, edges), reference


def fig6_chain():
    return [1, 2, 3], [(1, 2), (2, 3)]


def city_grid_20x20():
    return list(range(1, 401)), list(_grid_edges(20, 20))


def random_graph(seed):
    """Shuffled, sparse ids (so set order differs from graph order)."""
    rng = np.random.default_rng(seed)
    n_nodes = int(rng.integers(2, 60))
    nodes = [int(i) for i in rng.choice(500, size=n_nodes, replace=False)]
    p_edge = float(rng.uniform(0.02, 0.5))
    edges = [(a, b) for k, a in enumerate(nodes) for b in nodes[k + 1:]
             if rng.random() < p_edge]
    # Edges in shuffled direction and order, some repeated.
    edges = [(b, a) if rng.random() < 0.5 else (a, b) for a, b in edges]
    order = rng.permutation(len(edges))
    edges = [edges[k] for k in order] + edges[:len(edges) // 4]
    return nodes, edges


GRAPHS = ([("fig6-chain", fig6_chain), ("city-grid-20x20", city_grid_20x20)]
          + [(f"random-{seed}", lambda seed=seed: random_graph(seed))
             for seed in range(16)])


@pytest.fixture(params=GRAPHS, ids=[name for name, _ in GRAPHS])
def pair(request):
    return twins(*request.param[1]())


def colouring_items(coloring):
    return list(coloring.items())


class TestGraphMatchesNetworkx:
    def test_scenario_graphs_are_these_graphs(self):
        for config, (nodes, edges) in (
                (interfering_fbs_scenario(n_gops=1), fig6_chain()),
                (city_grid_scenario(rows=20, cols=20, n_gops=1),
                 city_grid_20x20())):
            graph = config.topology.interference_graph
            ours, _ = twins(nodes, edges)
            assert list(graph.nodes) == list(ours.nodes)
            assert list(graph.edges) == list(ours.edges)

    def test_orders_and_counts(self, pair):
        ours, reference = pair
        assert list(ours.nodes) == list(reference.nodes)
        assert list(ours.edges) == list(reference.edges)
        assert ours.number_of_nodes() == reference.number_of_nodes()
        assert ours.number_of_edges() == reference.number_of_edges()
        for node in reference:
            assert list(ours.neighbors(node)) == list(reference.neighbors(node))
            assert ours.degree(node) == reference.degree(node)
        assert list(ours.degree()) == list(reference.degree())
        assert max_degree(ours) == max_degree(reference)
        assert theorem2_factor(ours) == theorem2_factor(reference)

    def test_membership_and_edges(self, pair):
        ours, reference = pair
        nodes = list(reference)[:25]
        for u in nodes + [-1]:
            assert (u in ours) == (u in reference)
            for v in nodes + [-1]:
                assert ours.has_edge(u, v) == reference.has_edge(u, v)

    def test_config_hash_form(self, pair):
        ours, reference = pair
        assert hash_value(ours) == hash_value(reference)

    def test_independent_sets(self):
        for seed in range(6):
            nodes, edges = random_graph(100 + seed)
            nodes = nodes[:9]
            edges = [(a, b) for a, b in edges if a in nodes and b in nodes]
            ours, reference = twins(nodes, edges)
            assert (_independent_sets(nodes, ours)
                    == _independent_sets(nodes, reference))


class TestColouringMatchesGreedyColor:
    def test_whole_graph(self, pair):
        ours, reference = pair
        expected = nx.greedy_color(reference, strategy="largest_first")
        assert colouring_items(interference_coloring(ours)) == \
            colouring_items(expected)
        assert colouring_items(interference_coloring(
            ours, list(reference))) == colouring_items(expected)

    @pytest.mark.parametrize("fraction", [0.1, 0.3, 0.49, 0.5, 0.51, 0.8])
    def test_subsets_below_and_above_half(self, pair, fraction):
        ours, reference = pair
        rng = np.random.default_rng(int(fraction * 100))
        nodes = list(reference)
        for _ in range(4):
            size = max(1, int(round(fraction * len(nodes))))
            subset = [nodes[k] for k in rng.permutation(len(nodes))[:size]]
            expected = nx.greedy_color(reference.subgraph(subset),
                                       strategy="largest_first")
            assert colouring_items(interference_coloring(ours, subset)) \
                == colouring_items(expected)

    def test_small_subset_ties_in_set_order(self):
        # Below half the graph, networkx's subgraph view iterates the
        # Python set of the ids, not graph order.
        nodes = list(range(1, 20)) + [64, 100]
        ours, reference = twins(nodes, [(2, 5), (5, 7)])
        subset = [64, 100, 3, 1]
        expected = nx.greedy_color(reference.subgraph(subset),
                                   strategy="largest_first")
        assert list(expected) == [64, 1, 3, 100]
        assert colouring_items(interference_coloring(ours, subset)) == \
            colouring_items(expected)

    def test_unknown_ids_are_ignored(self):
        ours, reference = twins(*fig6_chain())
        expected = nx.greedy_color(reference.subgraph([3, 9, 2]),
                                   strategy="largest_first")
        assert colouring_items(interference_coloring(ours, [3, 9, 2])) == \
            colouring_items(expected)
