"""Tests for NAL packetisation."""

import pytest

from repro.utils.errors import ConfigurationError
from repro.video.packets import NalPacket, packetize_gop
from repro.video.sequences import get_sequence


class TestPacketize:
    def test_total_bits_match_rate(self):
        seq = get_sequence("bus")
        packets = packetize_gop(seq, enhancement_rate_mbps=0.3)
        total_bits = sum(p.size_bits for p in packets)
        assert total_bits == int(round(0.3e6 * seq.gop_duration_s))

    def test_decreasing_significance_order(self):
        packets = packetize_gop(get_sequence("bus"), enhancement_rate_mbps=0.2)
        assert [p.index for p in packets] == list(range(len(packets)))

    def test_total_gain_matches_linear_model(self):
        # Receiving every packet must reproduce eq. (9) at the full rate.
        seq = get_sequence("harbor")
        rate = 0.25
        packets = packetize_gop(seq, enhancement_rate_mbps=rate)
        full = seq.base_psnr_db + sum(p.psnr_gain_db for p in packets)
        # Agreement up to the single-bit quantisation of the GOP payload.
        assert full == pytest.approx(seq.rd.psnr(rate), abs=1e-3)

    def test_zero_rate_no_packets(self):
        assert packetize_gop(get_sequence("bus"), enhancement_rate_mbps=0.0) == []

    def test_nonstandard_packet_size(self):
        packets = packetize_gop(get_sequence("bus"), enhancement_rate_mbps=0.1,
                                packet_size_bits=1000)
        assert all(p.size_bits <= 1000 for p in packets)

    def test_invalid_inputs(self):
        seq = get_sequence("bus")
        with pytest.raises(ConfigurationError):
            packetize_gop(seq, enhancement_rate_mbps=-0.1)
        with pytest.raises(ConfigurationError):
            packetize_gop(seq, enhancement_rate_mbps=0.1, packet_size_bits=0)


class TestNalPacket:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            NalPacket(index=-1, size_bits=100, psnr_gain_db=0.1)
        with pytest.raises(ConfigurationError):
            NalPacket(index=0, size_bits=0, psnr_gain_db=0.1)
        with pytest.raises(ConfigurationError):
            NalPacket(index=0, size_bits=100, psnr_gain_db=-0.1)
