"""Tests for the OFDM slot-rate model (Section IV-A)."""

import pytest

from repro.phy.rates import slot_rate_mbps
from repro.utils.errors import ConfigurationError
from tests.reference import gop_bits


class TestSlotRate:
    def test_mbs_link_single_channel(self):
        assert slot_rate_mbps(0.5, 0.3) == pytest.approx(0.15)

    def test_fbs_link_scales_with_channels(self):
        # OFDM: rho * G_t * B1 (first constraint of problem (10)).
        assert slot_rate_mbps(0.5, 0.3, expected_channels=3.2) == pytest.approx(0.48)

    def test_zero_share_zero_rate(self):
        assert slot_rate_mbps(0.0, 0.3, 5.0) == 0.0

    def test_share_out_of_range(self):
        with pytest.raises(ConfigurationError):
            slot_rate_mbps(1.2, 0.3)
        with pytest.raises(ConfigurationError):
            slot_rate_mbps(-0.1, 0.3)

    def test_negative_channels_rejected(self):
        with pytest.raises(ConfigurationError):
            slot_rate_mbps(0.5, 0.3, expected_channels=-1.0)


class TestGopBits:
    def test_known_value(self):
        # 0.3 Mbps * 10 ms * 10 slots = 30 kbit
        assert gop_bits(0.3, 10, slot_duration_s=1e-2) == pytest.approx(30000.0)

    def test_zero_slots(self):
        assert gop_bits(0.3, 0) == 0.0

    def test_negative_slots_rejected(self):
        with pytest.raises(ConfigurationError):
            gop_bits(0.3, -1)
