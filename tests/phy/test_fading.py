"""Tests for the block-fading models (Section III-D, eq. 8)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.phy.fading import RayleighFading
from repro.utils.errors import ConfigurationError
from tests.reference import BlockFadingLink


class TestRayleigh:
    def test_closed_form_cdf(self):
        fading = RayleighFading(mean_sinr=10.0)
        assert fading.cdf(10.0) == pytest.approx(1.0 - math.exp(-1.0))

    def test_cdf_at_zero(self):
        assert RayleighFading(5.0).cdf(0.0) == 0.0

    def test_cdf_monotone(self):
        fading = RayleighFading(3.0)
        values = [fading.cdf(h) for h in (0.1, 1.0, 5.0, 20.0)]
        assert values == sorted(values)

    def test_empirical_cdf_agrees(self):
        fading = RayleighFading(mean_sinr=8.0)
        samples = fading.sample(np.random.default_rng(0), size=100000)
        for threshold in (2.0, 8.0, 16.0):
            empirical = float(np.mean(samples <= threshold))
            assert empirical == pytest.approx(fading.cdf(threshold), abs=0.01)

    def test_sample_mean(self):
        samples = RayleighFading(4.0).sample(np.random.default_rng(1), size=50000)
        assert float(samples.mean()) == pytest.approx(4.0, rel=0.05)

    def test_invalid_mean(self):
        with pytest.raises(ConfigurationError):
            RayleighFading(0.0)

    @given(mean=st.floats(0.1, 100.0), threshold=st.floats(0.0, 100.0))
    @settings(max_examples=50)
    def test_property_cdf_in_unit_interval(self, mean, threshold):
        assert 0.0 <= RayleighFading(mean).cdf(threshold) <= 1.0


class TestBlockFadingLink:
    def test_loss_probability_is_cdf_at_threshold(self):
        fading = RayleighFading(10.0)
        link = BlockFadingLink(fading, threshold=3.0, rng=0)
        assert link.loss_probability == pytest.approx(fading.cdf(3.0))
        assert link.success_probability == pytest.approx(1.0 - fading.cdf(3.0))

    def test_realize_slot_matches_probability(self):
        link = BlockFadingLink(RayleighFading(10.0), threshold=3.0, rng=1)
        successes = sum(link.realize_slot() for _ in range(30000))
        assert successes / 30000 == pytest.approx(link.success_probability, abs=0.01)

    def test_invalid_threshold(self):
        with pytest.raises(ConfigurationError):
            BlockFadingLink(RayleighFading(10.0), threshold=0.0)
