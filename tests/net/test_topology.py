"""Tests for topology resolution and link budgets."""

import math

import pytest

from repro.net.nodes import CrUser, FemtoBaseStation, MacroBaseStation
from repro.net.topology import (
    DEFAULT_FEMTO_BUDGET,
    DEFAULT_MACRO_BUDGET,
    associate_nearest,
    build_topology,
    link_margin,
    link_success_probability,
)
from repro.utils.errors import ConfigurationError


def small_network():
    mbs = MacroBaseStation(position=(0.0, 0.0))
    fbss = [FemtoBaseStation(1, (280.0, 0.0)), FemtoBaseStation(2, (350.0, 0.0))]
    users = [
        CrUser(0, (285.0, 0.0), "bus"),
        CrUser(1, (352.0, 4.0), "mobile"),
    ]
    return mbs, fbss, users


class TestAssociation:
    def test_nearest_fbs_chosen(self):
        mbs, fbss, users = small_network()
        resolved = associate_nearest(users, fbss)
        assert resolved[0].fbs_id == 1
        assert resolved[1].fbs_id == 2

    def test_explicit_association_preserved(self):
        _mbs, fbss, _users = small_network()
        user = CrUser(0, (285.0, 0.0), "bus", fbs_id=2)
        resolved = associate_nearest([user], fbss)
        assert resolved[0].fbs_id == 2

    def test_no_fbss_rejected(self):
        with pytest.raises(ConfigurationError):
            associate_nearest([CrUser(0, (0.0, 0.0), "bus")], [])


class TestLinkBudget:
    def test_success_consistent_with_margin(self):
        # Rayleigh: success = exp(-1 / mean_margin).
        margin = link_margin(0.0, 12.0, DEFAULT_FEMTO_BUDGET)
        success = link_success_probability(0.0, 12.0, DEFAULT_FEMTO_BUDGET)
        assert success == pytest.approx(math.exp(-1.0 / margin))

    def test_success_decreases_with_distance(self):
        near = link_success_probability(0.0, 6.0, DEFAULT_FEMTO_BUDGET)
        far = link_success_probability(0.0, 25.0, DEFAULT_FEMTO_BUDGET)
        assert near > far

    def test_macro_links_in_meaningful_range(self):
        # Link budgets are calibrated so losses matter (Section V regime).
        success = link_success_probability(43.0, 280.0, DEFAULT_MACRO_BUDGET)
        assert 0.5 < success < 0.95

    def test_invalid_distance(self):
        with pytest.raises(ConfigurationError):
            link_margin(0.0, 0.0, DEFAULT_FEMTO_BUDGET)


class TestBuildTopology:
    def test_full_resolution(self):
        mbs, fbss, users = small_network()
        topology = build_topology(mbs, fbss, users)
        assert topology.n_users == 2
        assert topology.n_fbss == 2
        for user in topology.users:
            assert 0.0 < topology.mbs_success[user.user_id] < 1.0
            assert 0.0 < topology.fbs_success[user.user_id] < 1.0
            assert topology.mbs_margin[user.user_id] > 0.0
            # Femto links are shorter/better than macro links here.
            assert (topology.fbs_success[user.user_id]
                    > topology.mbs_success[user.user_id])

    def test_interference_graph_from_geometry(self):
        mbs, fbss, users = small_network()
        topology = build_topology(mbs, fbss, users)
        assert topology.interference_graph.number_of_edges() == 0

    def test_explicit_graph_wins(self):
        from repro.net.interference import interference_graph_from_edges
        mbs, fbss, users = small_network()
        graph = interference_graph_from_edges([1, 2], [(1, 2)])
        topology = build_topology(mbs, fbss, users, interference_graph=graph)
        assert topology.interference_graph.has_edge(1, 2)

    def test_users_of_fbs(self):
        mbs, fbss, users = small_network()
        topology = build_topology(mbs, fbss, users)
        assert [u.user_id for u in topology.users_of_fbs(1)] == [0]

    def test_fbs_lookup(self):
        mbs, fbss, users = small_network()
        topology = build_topology(mbs, fbss, users)
        assert topology.fbs_by_id(2).position == (350.0, 0.0)
        with pytest.raises(ConfigurationError):
            topology.fbs_by_id(99)

    def test_duplicate_user_ids_rejected(self):
        mbs, fbss, _ = small_network()
        users = [CrUser(0, (285.0, 0.0), "bus"), CrUser(0, (286.0, 0.0), "bus")]
        with pytest.raises(ConfigurationError):
            build_topology(mbs, fbss, users)

    def test_unknown_association_rejected(self):
        mbs, fbss, _ = small_network()
        users = [CrUser(0, (285.0, 0.0), "bus", fbs_id=9)]
        with pytest.raises(ConfigurationError):
            build_topology(mbs, fbss, users)

    def test_no_users_rejected(self):
        mbs, fbss, _ = small_network()
        with pytest.raises(ConfigurationError):
            build_topology(mbs, fbss, [])
