"""Tests for interference-graph construction (Definition 1, Figs. 2/5)."""

import pytest

from repro.net.interference import (
    build_interference_graph,
    interference_graph_from_edges,
    max_degree,
    neighbors,
)
from repro.net.nodes import FemtoBaseStation
from repro.utils.errors import ConfigurationError
from tests.reference import is_valid_allocation


def chain_fbss():
    """Three FBSs in the Fig. 5 geometry: 1-2 and 2-3 overlap, 1-3 not."""
    return [
        FemtoBaseStation(1, (0.0, 0.0), coverage_radius_m=30.0),
        FemtoBaseStation(2, (45.0, 0.0), coverage_radius_m=30.0),
        FemtoBaseStation(3, (90.0, 0.0), coverage_radius_m=30.0),
    ]


class TestGeometricConstruction:
    def test_fig5_chain(self):
        graph = build_interference_graph(chain_fbss())
        assert sorted(graph.nodes) == [1, 2, 3]
        assert sorted(graph.edges) == [(1, 2), (2, 3)]

    def test_fig2_topology(self):
        # Fig. 1/2: FBS 1 and 2 isolated; FBS 3 and 4 overlap.
        fbss = [
            FemtoBaseStation(1, (0.0, 0.0), coverage_radius_m=30.0),
            FemtoBaseStation(2, (200.0, 0.0), coverage_radius_m=30.0),
            FemtoBaseStation(3, (400.0, 0.0), coverage_radius_m=30.0),
            FemtoBaseStation(4, (440.0, 0.0), coverage_radius_m=30.0),
        ]
        graph = build_interference_graph(fbss)
        assert sorted(graph.edges) == [(3, 4)]
        assert max_degree(graph) == 1

    def test_isolated_fbss(self):
        fbss = [FemtoBaseStation(i, (200.0 * i, 0.0)) for i in (1, 2, 3)]
        graph = build_interference_graph(fbss)
        assert graph.number_of_edges() == 0
        assert max_degree(graph) == 0

    def test_duplicate_ids_rejected(self):
        fbss = [FemtoBaseStation(1, (0.0, 0.0)), FemtoBaseStation(1, (1.0, 0.0))]
        with pytest.raises(ConfigurationError):
            build_interference_graph(fbss)


class TestExplicitConstruction:
    def test_fig5_from_edges(self):
        graph = interference_graph_from_edges([1, 2, 3], [(1, 2), (2, 3)])
        assert max_degree(graph) == 2  # FBS 2

    def test_unknown_endpoint_rejected(self):
        with pytest.raises(ConfigurationError):
            interference_graph_from_edges([1, 2], [(1, 3)])

    def test_self_loop_rejected(self):
        with pytest.raises(ConfigurationError):
            interference_graph_from_edges([1, 2], [(1, 1)])


class TestQueries:
    def test_neighbors(self):
        graph = interference_graph_from_edges([1, 2, 3], [(1, 2), (2, 3)])
        assert neighbors(graph, 2) == {1, 3}
        assert neighbors(graph, 1) == {2}

    def test_neighbors_unknown_node(self):
        graph = interference_graph_from_edges([], [])
        with pytest.raises(ConfigurationError):
            neighbors(graph, 1)

    def test_max_degree_empty_graph(self):
        assert max_degree(interference_graph_from_edges([], [])) == 0


class TestAllocationValidity:
    def test_valid_allocation(self):
        graph = interference_graph_from_edges([1, 2, 3], [(1, 2), (2, 3)])
        allocation = {1: {0, 1}, 2: {2}, 3: {0, 1}}  # 1 and 3 may share
        assert is_valid_allocation(graph, allocation)

    def test_conflicting_allocation(self):
        graph = interference_graph_from_edges([1, 2], [(1, 2)])
        assert not is_valid_allocation(graph, {1: {0}, 2: {0}})

    def test_missing_fbs_treated_as_empty(self):
        graph = interference_graph_from_edges([1, 2], [(1, 2)])
        assert is_valid_allocation(graph, {1: {0}})
