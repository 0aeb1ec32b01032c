"""Tests for the sequence library."""

import pytest

from repro.utils.errors import ConfigurationError
from repro.video.sequences import SEQUENCE_LIBRARY, VideoSequence, get_sequence
from repro.video.rd_model import MgsRateDistortion


class TestLibrary:
    def test_paper_sequences_present(self):
        for name in ("bus", "mobile", "harbor"):
            seq = get_sequence(name)
            assert seq.resolution == (352, 288)  # CIF, Section V
            assert seq.gop_size == 16

    def test_lookup_case_insensitive(self):
        assert get_sequence("Bus") is get_sequence("bus")

    def test_unknown_sequence_lists_available(self):
        with pytest.raises(ConfigurationError, match="bus"):
            get_sequence("nosuchvideo")

    def test_mobile_is_hardest(self):
        # Published MGS orderings: Mobile has the lowest base-layer PSNR.
        alphas = {name: seq.rd.alpha_db for name, seq in SEQUENCE_LIBRARY.items()}
        assert alphas["mobile"] == min(alphas.values())

    def test_bus_has_steepest_slope_of_paper_trio(self):
        betas = {name: get_sequence(name).rd.beta_db_per_mbps
                 for name in ("bus", "mobile", "harbor")}
        assert betas["bus"] == max(betas.values())

    def test_all_sequences_saturate(self):
        # Finite enhancement layers: see module docstring (saturation is
        # the mechanism penalising winner-take-all schedulers).
        for seq in SEQUENCE_LIBRARY.values():
            assert seq.rd.max_rate_mbps < float("inf")
            assert 35.0 < seq.rd.max_psnr_db < 50.0

    def test_gop_duration(self):
        seq = get_sequence("bus")
        assert seq.gop_duration_s == pytest.approx(16.0 / 30.0)

    def test_base_psnr_property(self):
        seq = get_sequence("harbor")
        assert seq.base_psnr_db == seq.rd.alpha_db


class TestVideoSequenceValidation:
    def test_invalid_gop(self):
        with pytest.raises(ConfigurationError):
            VideoSequence("x", (352, 288), 30.0, 0, MgsRateDistortion(30, 30))

    def test_invalid_frame_rate(self):
        with pytest.raises(ConfigurationError):
            VideoSequence("x", (352, 288), 0.0, 16, MgsRateDistortion(30, 30))

    def test_invalid_resolution(self):
        with pytest.raises(ConfigurationError):
            VideoSequence("x", (0, 288), 30.0, 16, MgsRateDistortion(30, 30))


class TestRdSlotTable:
    """The process-wide R-D increment cache (DESIGN.md section 14)."""

    @pytest.fixture(autouse=True)
    def fresh_table(self):
        from repro.video import sequences
        sequences._RD_SLOT_TABLE.clear()
        yield
        sequences._RD_SLOT_TABLE.clear()

    def test_cached_value_is_bit_identical(self):
        from repro.video.sequences import rd_slot_increment
        direct = get_sequence("bus").rd.slot_increment(0.6, 16)
        assert rd_slot_increment("bus", 0.6, 16) == direct  # miss
        assert rd_slot_increment("bus", 0.6, 16) == direct  # hit

    def test_hit_miss_counters(self):
        from repro.video import sequences
        sequences.rd_slot_increment("bus", 0.6, 16)
        sequences.rd_slot_increment("Bus", 0.6, 16)  # case-folded key: a hit
        sequences.rd_slot_increment("bus", 0.7, 16)
        # Two misses, two entries; the hit added none.
        assert sorted(sequences._RD_SLOT_TABLE) == [("bus", 0.6, 16),
                                                    ("bus", 0.7, 16)]

    def test_obs_counter_when_metrics_enabled(self):
        from repro.obs.metrics import (
            enable_metrics,
            reset_metrics,
            scoped_registry,
        )
        from repro.video.sequences import rd_slot_increment
        enable_metrics(True)
        try:
            with scoped_registry() as registry:
                rd_slot_increment("mobile", 0.6, 16)
                rd_slot_increment("mobile", 0.6, 16)
                counters = registry.counters()
        finally:
            enable_metrics(False)
            reset_metrics()
        assert counters[
            'repro_video_rd_table_requests_total{result="miss"}'] == 1.0
        assert counters[
            'repro_video_rd_table_requests_total{result="hit"}'] == 1.0
