"""Colour classes built once per engine, dealt every slot.

The colour-partition schemes colour the static interference graph once
(:func:`repro.sim.channel_assignment.colour_classes`) and deal each
slot's ranked access set across those classes
(:func:`~repro.sim.channel_assignment.deal_channels`).  The classes must
be exactly the ones ``nx.greedy_color(..., strategy="largest_first")``
gives on the FBSs' subgraph, which is what a per-slot colouring
computed.
"""

import networkx as nx
import numpy as np
import pytest

from repro.experiments.citygrid import city_grid_scenario
from repro.experiments.scenarios import interfering_fbs_scenario
from repro.net.interference import interference_graph_from_edges
from repro.sim import channel_assignment
from repro.sim.channel_assignment import colour_classes, deal_channels
from repro.sim.engine import SimulationEngine
from tests.reference import color_partition_allocation


def reference_classes(graph, fbs_ids):
    """Classes from a per-slot ``nx.greedy_color`` of the FBS subgraph."""
    reference = nx.Graph()
    reference.add_nodes_from(graph.nodes)
    reference.add_edges_from(graph.edges)
    coloring = nx.greedy_color(reference.subgraph(fbs_ids),
                               strategy="largest_first")
    classes = [[] for _ in range(max(coloring.values()) + 1)]
    for fbs_id, color in coloring.items():
        classes[color].append(fbs_id)
    return classes


def random_graph(seed, n_nodes, p_edge):
    rng = np.random.default_rng(seed)
    nodes = [int(node) for node in rng.permutation(n_nodes) + 1]
    edges = [(a, b) for i, a in enumerate(nodes) for b in nodes[i + 1:]
             if rng.random() < p_edge]
    return interference_graph_from_edges(nodes, edges)


def fig6_chain():
    return interfering_fbs_scenario(n_gops=1).topology.interference_graph


def city_grid_20x20():
    return city_grid_scenario(rows=20, cols=20, n_gops=1).topology \
        .interference_graph


class TestColourClassesMatchGreedyColor:
    @pytest.mark.parametrize("make_graph", [fig6_chain, city_grid_20x20],
                             ids=["fig6-chain", "city-grid-20x20"])
    def test_whole_graph(self, make_graph):
        graph = make_graph()
        fbs_ids = sorted(graph.nodes)
        assert colour_classes(graph, fbs_ids) == reference_classes(
            graph, fbs_ids)

    @pytest.mark.parametrize("seed", range(12))
    def test_seeded_random_graphs(self, seed):
        rng = np.random.default_rng(1000 + seed)
        graph = random_graph(seed, int(rng.integers(2, 40)),
                             float(rng.uniform(0.05, 0.6)))
        fbs_ids = sorted(graph.nodes)
        assert colour_classes(graph, fbs_ids) == reference_classes(
            graph, fbs_ids)

    @pytest.mark.parametrize("seed", range(8))
    def test_node_subsets(self, seed):
        rng = np.random.default_rng(2000 + seed)
        graph = (city_grid_20x20() if seed == 0
                 else random_graph(seed, 30, 0.2))
        nodes = sorted(graph.nodes)
        size = int(rng.integers(1, len(nodes) + 1))
        fbs_ids = [int(i) for i in rng.choice(nodes, size=size,
                                              replace=False)]
        assert colour_classes(graph, fbs_ids) == reference_classes(
            graph, fbs_ids)

    def test_empty(self):
        assert colour_classes(fig6_chain(), []) == []
        assert deal_channels([], [], [0, 1], {0: 0.5, 1: 0.4}) == {}


class TestDealing:
    @pytest.mark.parametrize("seed", range(10))
    def test_composition_is_the_partition(self, seed):
        rng = np.random.default_rng(seed)
        graph = random_graph(seed, 15, 0.3)
        fbs_ids = sorted(graph.nodes)
        classes = colour_classes(graph, fbs_ids)
        for _ in range(5):
            n_channels = int(rng.integers(0, 8))
            available = [m for m in range(8) if rng.random() < 0.6]
            posteriors = {m: float(rng.random()) for m in range(n_channels)}
            assert deal_channels(classes, fbs_ids, available, posteriors) \
                == color_partition_allocation(graph, fbs_ids, available,
                                              posteriors)


class TestOnePerEngine:
    """The engine colours the interference graph once, not every slot."""

    @pytest.fixture
    def coloring_calls(self, monkeypatch):
        calls = []
        original = channel_assignment.interference_coloring

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(channel_assignment, "interference_coloring",
                            counting)
        return calls

    @pytest.mark.parametrize("scheme", ["graph-coloring", "heuristic1",
                                        "heuristic2"])
    def test_one_coloring_per_engine(self, coloring_calls, scheme):
        for config in (
                interfering_fbs_scenario(n_gops=1, n_channels=4, seed=3,
                                         scheme=scheme),
                city_grid_scenario(rows=3, cols=3, users_per_fbs=2,
                                   n_channels=4, n_gops=1, seed=3,
                                   scheme=scheme)):
            del coloring_calls[:]
            engine = SimulationEngine(config)
            for _ in range(config.n_slots):
                engine.step()
            assert len(coloring_calls) == 1

    def test_greedy_schemes_do_not_color(self, coloring_calls):
        config = interfering_fbs_scenario(n_gops=1, n_channels=4, seed=3,
                                          scheme="proposed-fast")
        engine = SimulationEngine(config)
        engine.step()
        assert coloring_calls == []
