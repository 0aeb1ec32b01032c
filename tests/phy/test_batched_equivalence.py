"""Differential tests: batched PHY backend vs the scalar oracle.

The batched fading/SINR helpers must reproduce the scalar seed code
draw for draw (margins, RNG state) and element for element (outage
indicators, rates).  The closed-form CDF helpers are the one documented
exception: numpy's SIMD ``exp`` may differ from libm's by 1 ulp, and
``1 - exp(...)`` carries that discrepancy as an *absolute* error of up
to one ulp of unity, so the loss-probability helpers are pinned with
that explicit bound instead of strict equality.
"""

import math

import numpy as np
import pytest

from repro.phy.fading import (
    BlockFadingLink,
    NakagamiFading,
    RayleighFading,
    decode_indicators,
    draw_rayleigh_margins,
)
from repro.phy.rates import slot_rate_mbps, slot_rates_mbps
from repro.phy.sinr import (
    packet_loss_probability,
    rayleigh_loss_probabilities,
    rayleigh_success_probabilities,
)
from repro.utils.errors import ConfigurationError


def _fuzzed_margins(rng, n):
    """Mean decoding margins spanning deep fades to near-certain links."""
    return 10.0 ** rng.uniform(-2.0, 2.0, size=n)


class TestBatchedMarginDraws:
    def test_matches_scalar_draw_sequence(self, rng_pair):
        batched_rng, scalar_rng = rng_pair
        means = _fuzzed_margins(np.random.default_rng(1), 333)
        batch = draw_rayleigh_margins(batched_rng, means)
        scalars = np.array([scalar_rng.exponential(m) for m in means])
        assert np.array_equal(batch, scalars)
        assert (batched_rng.bit_generator.state
                == scalar_rng.bit_generator.state)

    def test_interleaved_layout_matches_per_link_loop(self, rng_pair):
        """The engine's (mbs, fbs, mbs, fbs, ...) interleaving is exact."""
        batched_rng, scalar_rng = rng_pair
        gen = np.random.default_rng(2)
        mbs = _fuzzed_margins(gen, 50)
        fbs = _fuzzed_margins(gen, 50)
        interleaved = np.empty(100)
        interleaved[0::2] = mbs
        interleaved[1::2] = fbs
        batch = draw_rayleigh_margins(batched_rng, interleaved)
        for k in range(50):
            assert float(scalar_rng.exponential(mbs[k])) == batch[2 * k]
            assert float(scalar_rng.exponential(fbs[k])) == batch[2 * k + 1]

    def test_nonpositive_margin_rejected(self, rng_pair):
        with pytest.raises(ConfigurationError):
            draw_rayleigh_margins(rng_pair[0], [1.0, 0.0])

    def test_matches_fading_model_sampling(self, rng_pair):
        """RayleighFading.sample and the batched draw share a stream."""
        batched_rng, scalar_rng = rng_pair
        means = [0.5, 2.0, 7.5]
        batch = draw_rayleigh_margins(batched_rng, means)
        scalars = [float(RayleighFading(m).sample(scalar_rng)) for m in means]
        assert batch.tolist() == scalars


class TestDecodeIndicators:
    def test_matches_scalar_comparisons(self):
        rng = np.random.default_rng(3)
        margins = rng.exponential(1.0, size=500)
        batch = decode_indicators(margins)
        scalars = np.array([int(m > 1.0) for m in margins])
        assert np.array_equal(batch, scalars)

    def test_matches_block_fading_link_realisation(self, rng_pair):
        """One draw + one comparison = BlockFadingLink.realize_slot."""
        batched_rng, scalar_rng = rng_pair
        means = [0.3, 1.0, 4.2, 9.9]
        links = [BlockFadingLink(RayleighFading(m), 1.0, rng=scalar_rng)
                 for m in means]
        margins = draw_rayleigh_margins(batched_rng, means)
        batch = decode_indicators(margins)
        scalars = [link.realize_slot() for link in links]
        assert batch.tolist() == scalars

    def test_custom_threshold(self):
        margins = np.array([0.5, 1.5, 2.5])
        assert decode_indicators(margins, 2.0).tolist() == [0, 0, 1]


# One ulp of unity: np.exp vs math.exp may disagree in the last bit,
# and 1 - exp(...) turns that into an absolute error at this scale.
ULP_AT_ONE = np.spacing(1.0)


class TestVectorizedLossProbabilities:
    def test_within_one_ulp_of_unity_of_scalar_cdf(self):
        rng = np.random.default_rng(4)
        means = _fuzzed_margins(rng, 1000)
        threshold = 1.0
        batch = rayleigh_loss_probabilities(means, threshold)
        scalars = np.array([RayleighFading(m).cdf(threshold) for m in means])
        assert np.abs(batch - scalars).max() <= ULP_AT_ONE

    def test_success_complements_loss(self):
        means = np.array([0.5, 1.0, 3.0])
        loss = rayleigh_loss_probabilities(means, 1.0)
        success = rayleigh_success_probabilities(means, 1.0)
        assert np.array_equal(success, 1.0 - loss)

    def test_matches_functional_wrapper(self):
        means = [0.7, 2.0]
        batch = rayleigh_loss_probabilities(means, 1.5)
        scalars = [packet_loss_probability(RayleighFading(m), 1.5)
                   for m in means]
        assert np.abs(batch - np.array(scalars)).max() <= ULP_AT_ONE

    def test_rejects_nonpositive_means(self):
        with pytest.raises(ConfigurationError):
            rayleigh_loss_probabilities([1.0, -0.5], 1.0)

    def test_zero_threshold_is_lossless(self):
        assert rayleigh_loss_probabilities([1.0, 5.0], 0.0).tolist() == [0.0, 0.0]


class TestVectorizedRates:
    def test_matches_scalar_products(self):
        rng = np.random.default_rng(5)
        shares = rng.uniform(0.0, 1.0, 64)
        expected = rng.uniform(0.0, 8.0, 64)
        batch = slot_rates_mbps(shares, 0.3, expected)
        scalars = np.array([slot_rate_mbps(float(s), 0.3, float(g))
                            for s, g in zip(shares, expected)])
        assert np.array_equal(batch, scalars)

    def test_scalar_expected_channels_broadcasts(self):
        shares = np.array([0.25, 0.5])
        assert np.array_equal(slot_rates_mbps(shares, 0.4),
                              shares * 0.4)

    def test_rejects_out_of_range_share(self):
        with pytest.raises(ConfigurationError):
            slot_rates_mbps([0.5, 1.5], 0.3)


class TestEngineCsiEquivalence:
    """The engine's batched CSI draw against the scalar oracle."""

    def test_draw_csi_batched_matches_scalar(self, small_scenario):
        from repro.sim.engine import SimulationEngine
        from tests.oracle import draw_csi
        a = SimulationEngine(small_scenario)
        b = SimulationEngine(small_scenario)
        for _ in range(8):
            assert a._draw_csi_batched() == draw_csi(b)

    def test_hoisted_scales_match_topology(self, small_scenario):
        from repro.sim.engine import SimulationEngine
        engine = SimulationEngine(small_scenario)
        topology = small_scenario.topology
        for k, user_id in enumerate(engine._csi_user_ids):
            assert engine._csi_scales[2 * k] == topology.mbs_margin[user_id]
            assert engine._csi_scales[2 * k + 1] == topology.fbs_margin[user_id]

    def test_nakagami_sample_stream_consistency(self, rng_pair):
        """Nakagami batched sampling also consumes like scalar calls."""
        batched_rng, scalar_rng = rng_pair
        model = NakagamiFading(mean_sinr=2.0, m=2.0)
        batch = model.sample(batched_rng, size=50)
        scalars = np.array([float(model.sample(scalar_rng))
                            for _ in range(50)])
        assert np.array_equal(batch, scalars)

    def test_loss_probability_from_margin_identity(self):
        """success = exp(-1/margin): the identity the engine relies on."""
        margin = 3.7
        fading = RayleighFading(margin)
        assert fading.cdf(1.0) == pytest.approx(1.0 - math.exp(-1.0 / margin))
