"""Tests for sensor-to-channel assignment."""

import pytest

from repro.sensing.assignment import assign_sensors_round_robin
from repro.utils.errors import ConfigurationError


class TestRoundRobin:
    def test_cycles_through_channels(self):
        assignment = assign_sensors_round_robin([10, 11, 12, 13], 3)
        assert assignment == {10: 0, 11: 1, 12: 2, 13: 0}

    def test_offset_rotates(self):
        base = assign_sensors_round_robin([1, 2, 3], 4, offset=0)
        shifted = assign_sensors_round_robin([1, 2, 3], 4, offset=1)
        for user in (1, 2, 3):
            assert shifted[user] == (base[user] + 1) % 4

    def test_every_user_visits_every_channel_over_m_slots(self):
        users = [0, 1]
        n_channels = 5
        visited = {u: set() for u in users}
        for slot in range(n_channels):
            for user, channel in assign_sensors_round_robin(
                    users, n_channels, offset=slot).items():
                visited[user].add(channel)
        assert all(len(channels) == n_channels for channels in visited.values())

    def test_balanced_coverage(self):
        assignment = assign_sensors_round_robin(list(range(8)), 4)
        counts = [list(assignment.values()).count(m) for m in range(4)]
        assert counts == [2, 2, 2, 2]

    def test_invalid_inputs(self):
        with pytest.raises(ConfigurationError):
            assign_sensors_round_robin([1], 0)
        with pytest.raises(ConfigurationError):
            assign_sensors_round_robin([1], 3, offset=-1)

    def test_empty_users_ok(self):
        assert assign_sensors_round_robin([], 3) == {}
