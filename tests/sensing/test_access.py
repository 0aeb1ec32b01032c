"""Tests for the collision-capped access policy (eqs. (5)-(7))."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sensing.access import AccessDecision, AccessPolicy, CollisionTracker
from repro.sensing.detector import SpectrumSensor
from repro.sensing.fusion import fuse_posterior
from repro.spectrum.channel import Spectrum


class TestAccessProbability:
    def test_eq7_below_cap(self):
        # busy posterior 0.5 > gamma 0.2 => P_D = 0.2/0.5 = 0.4
        policy = AccessPolicy([0.2])
        assert policy.access_probability(0, 0.5) == pytest.approx(0.4)

    def test_eq7_clipped_at_one(self):
        # busy posterior 0.1 <= gamma 0.2 => always access
        policy = AccessPolicy([0.2])
        assert policy.access_probability(0, 0.9) == 1.0

    def test_certainly_busy_channel(self):
        policy = AccessPolicy([0.2])
        assert policy.access_probability(0, 0.0) == pytest.approx(0.2)

    def test_zero_cap_means_never_access_unless_certain(self):
        policy = AccessPolicy([0.0])
        assert policy.access_probability(0, 0.5) == 0.0
        assert policy.access_probability(0, 1.0) == 1.0

    @given(gamma=st.floats(0.0, 1.0), posterior=st.floats(0.0, 1.0))
    @settings(max_examples=100)
    def test_property_constraint_eq6(self, gamma, posterior):
        """(1 - P_A) * P_D <= gamma for every operating point."""
        policy = AccessPolicy([gamma])
        p_d = policy.access_probability(0, posterior)
        assert 0.0 <= p_d <= 1.0
        assert (1.0 - posterior) * p_d <= gamma + 1e-12


class TestDecide:
    def test_shapes_and_types(self):
        policy = AccessPolicy([0.2] * 4, rng=0)
        decision = policy.decide([0.9, 0.1, 0.5, 0.99])
        assert isinstance(decision, AccessDecision)
        assert decision.decisions.shape == (4,)
        assert set(np.unique(decision.decisions)) <= {0, 1}

    def test_wrong_length_rejected(self):
        policy = AccessPolicy([0.2] * 4, rng=0)
        with pytest.raises(ValueError):
            policy.decide([0.5, 0.5])

    def test_expected_available_is_posterior_sum(self):
        policy = AccessPolicy([0.2] * 3, rng=1)
        decision = policy.decide([0.95, 0.92, 0.05])
        available = decision.available_channels
        assert decision.expected_available == pytest.approx(
            float(np.sum(decision.posteriors[available])))

    def test_expected_available_subset(self):
        policy = AccessPolicy([0.2] * 3, rng=1)
        decision = policy.decide([0.95, 0.92, 0.9])
        full = decision.expected_available
        subset = decision.expected_available_subset(
            decision.available_channels.tolist()[:1])
        assert 0.0 <= subset <= full

    def test_subset_deduplicates_channel_indices(self):
        """Regression: a duplicated index must not inflate ``G``.

        ``G`` sums posteriors over a channel *set*; with posteriors
        0.5/0.6 the list ``[0, 0, 1]`` must yield 1.1, not 1.6.
        """
        policy = AccessPolicy([1.0] * 2, rng=0)  # cap 1.0: always access
        decision = policy.decide([0.5, 0.6])
        assert decision.available_channels.tolist() == [0, 1]
        assert decision.expected_available_subset([0, 0, 1]) == pytest.approx(1.1)
        assert decision.expected_available_subset([0, 0, 1]) == \
            decision.expected_available_subset([0, 1])

    def test_subset_ignores_unaccessed_channels(self):
        policy = AccessPolicy([0.0] * 2, rng=0)
        decision = policy.decide([0.5, 0.5])  # never accessed (cap 0)
        assert decision.available_channels.size == 0
        assert decision.expected_available_subset([0, 1]) == 0.0

    def test_accessed_list_matches_decisions(self):
        policy = AccessPolicy([0.3] * 6, rng=4)
        for _ in range(30):
            decision = policy.decide([0.9, 0.2, 0.5, 1.0, 0.0, 0.75])
            assert decision.accessed == \
                decision.available_channels.tolist()
            assert all(type(m) is int for m in decision.accessed)
        built = AccessDecision(
            access_probabilities=np.ones(3),
            decisions=np.array([1, 0, 0], dtype=np.int8),
            posteriors=np.array([0.1, 0.2, 0.3]))
        assert built.accessed == [1, 2]

    def test_sure_channels_always_accessed(self):
        policy = AccessPolicy([0.2] * 2, rng=2)
        for _ in range(50):
            decision = policy.decide([1.0, 0.85])
            assert decision.decisions[0] == 0
            assert decision.decisions[1] == 0


class TestExpectedAvailable:
    """G_t from the A(t) list equals numpy's sum over the old index array."""

    def test_expected_available_matches_numpy(self):
        rng = np.random.default_rng(61)
        for n_channels in range(1, 17):
            policy = AccessPolicy([1.0] * n_channels, rng=0)
            decision = policy.decide(rng.random(n_channels))
            expected = float(decision.posteriors[
                decision.available_channels].sum())
            assert decision.expected_available.hex() == expected.hex()


class TestEndToEndCollisionCap:
    def test_empirical_collision_rate_below_gamma(self):
        """Full loop: Markov truth -> noisy sensing -> fusion -> access.

        eq. (6) caps the unconditional per-slot collision probability at
        gamma; verified over a long horizon.
        """
        gamma = 0.2
        n_channels = 4
        rng = np.random.default_rng(3)
        spectrum = Spectrum(n_channels, 0.4, 0.3, rng=4)
        policy = AccessPolicy(np.full(n_channels, gamma), rng=5)
        sensors = [SpectrumSensor(0.3, 0.3, rng=rng) for _ in range(3)]
        tracker = CollisionTracker(n_channels)
        for _ in range(8000):
            state = spectrum.advance()
            posteriors = [
                fuse_posterior(spectrum.utilizations[m],
                               [s.sense(m, int(state.occupancy[m])) for s in sensors])
                for m in range(n_channels)
            ]
            tracker.record(policy.decide(posteriors), state.occupancy)
        rates = tracker.collision_rates()
        assert np.all(rates <= gamma + 0.02)


class TestCollisionTracker:
    def test_counts(self):
        tracker = CollisionTracker(2)
        decision = AccessDecision(
            access_probabilities=np.array([1.0, 1.0]),
            decisions=np.array([0, 1], dtype=np.int8),
            posteriors=np.array([0.9, 0.1]),
        )
        # ch0 accessed & busy
        assert tracker.record(decision, np.array([1, 1])) == 1
        assert tracker.accesses.dtype == tracker.collisions.dtype == np.int64
        assert tracker.accesses.tolist() == [1, 0]
        assert tracker.collisions.tolist() == [1, 0]
        assert tracker.collision_rates().tolist() == [1.0, 0.0]

    def test_empty_rates(self):
        assert CollisionTracker(3).collision_rates().tolist() == [0.0] * 3

    def test_shape_mismatch_rejected(self):
        tracker = CollisionTracker(2)
        decision = AccessDecision(
            access_probabilities=np.ones(2),
            decisions=np.zeros(2, dtype=np.int8),
            posteriors=np.ones(2))
        with pytest.raises(ValueError):
            tracker.record(decision, np.array([0, 0, 0]))
