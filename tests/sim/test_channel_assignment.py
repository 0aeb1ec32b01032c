"""Tests for the colour-partition baseline channel assignment."""

import pytest

from repro.net.interference import interference_graph_from_edges
from repro.sim.channel_assignment import expected_channels_of
from repro.utils.errors import ConfigurationError
from tests.reference import color_partition_allocation, is_valid_allocation


def chain():
    return interference_graph_from_edges([1, 2, 3], [(1, 2), (2, 3)])


class TestColorPartition:
    def test_conflict_free(self):
        graph = chain()
        posteriors = {m: 0.9 - 0.1 * m for m in range(6)}
        allocation = color_partition_allocation(graph, [1, 2, 3],
                                                list(range(6)), posteriors)
        assert is_valid_allocation(graph, allocation)

    def test_non_adjacent_share(self):
        graph = chain()
        allocation = color_partition_allocation(graph, [1, 2, 3], [0, 1],
                                                {0: 0.9, 1: 0.8})
        # 1 and 3 are one colour class: they receive identical channels.
        assert allocation[1] == allocation[3]
        assert not (allocation[1] & allocation[2])

    def test_every_channel_assigned_somewhere(self):
        graph = chain()
        channels = list(range(5))
        allocation = color_partition_allocation(
            graph, [1, 2, 3], channels, {m: 0.5 for m in channels})
        assigned = set().union(*allocation.values())
        assert assigned == set(channels)

    def test_best_channels_dealt_first(self):
        # With two colour classes, the best and third-best channels go to
        # class 0, the second-best to class 1: no class is starved.
        graph = chain()
        posteriors = {0: 0.9, 1: 0.5, 2: 0.7}
        allocation = color_partition_allocation(graph, [1, 2, 3], [0, 1, 2],
                                                posteriors)
        expected = expected_channels_of(allocation, posteriors)
        assert min(expected.values()) > 0.0

    def test_edgeless_graph_full_reuse(self):
        graph = interference_graph_from_edges([1, 2], [])
        allocation = color_partition_allocation(graph, [1, 2], [0, 1],
                                                {0: 0.9, 1: 0.8})
        assert allocation[1] == allocation[2] == {0, 1}

    def test_empty_inputs(self):
        graph = chain()
        assert color_partition_allocation(graph, [], [0], {0: 0.5}) == {}
        allocation = color_partition_allocation(graph, [1, 2, 3], [], {})
        assert all(not chans for chans in allocation.values())

    def test_unknown_fbs_rejected(self):
        with pytest.raises(ConfigurationError):
            color_partition_allocation(chain(), [9], [0], {0: 0.5})


class TestExpectedChannels:
    def test_sums(self):
        expected = expected_channels_of({1: {0, 2}, 2: set()},
                                        {0: 0.9, 1: 0.5, 2: 0.6})
        assert expected[1] == pytest.approx(1.5)
        assert expected[2] == 0.0
