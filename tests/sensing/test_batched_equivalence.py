"""Differential tests: batched sensing backend vs the scalar oracle.

Every batched sensing primitive -- observation realisation, Bayesian
fusion, belief tracking, access decisions -- is pinned bit for bit to
the scalar seed implementation over fuzzed inputs, including the
degenerate ``epsilon, delta in {0, 1}`` corners where the scalar path
short-circuits on zero/infinite likelihood ratios.
"""

import math

import numpy as np
import pytest

from repro.sensing.access import AccessPolicy, HardThresholdAccessPolicy
from repro.sensing.belief import ChannelBeliefTracker
from repro.sensing.detector import (
    SensingResult,
    SpectrumSensor,
    sense_observations_batched,
)
from repro.sensing.fusion import (
    fuse_posterior,
    fuse_posteriors_batched,
    likelihood_ratio_pair,
)
from repro.utils.errors import ConfigurationError

ERROR_PROFILES = [
    (0.1, 0.1),
    (0.45, 0.05),
    (0.0, 0.3),    # perfect idle detection: busy report has infinite LR
    (0.3, 0.0),    # perfect busy detection: idle report has zero LR
    (0.0, 0.0),    # oracle sensor
    (1.0, 0.3),    # always-busy reporter on idle channels
    (0.3, 1.0),
    (1.0, 1.0),    # inverted sensor
    (0.0, 1.0),    # both LRs degenerate (0/0 -> 1 convention)
]


def _results(channel, observations, false_alarm, miss_detection):
    """Wrap raw observations as the scalar path's SensingResult objects."""
    return [
        SensingResult(channel=channel, observation=int(obs),
                      false_alarm=false_alarm, miss_detection=miss_detection,
                      sensor_id=k)
        for k, obs in enumerate(observations)
    ]


class TestBatchedSensing:
    @pytest.mark.parametrize("false_alarm,miss_detection", ERROR_PROFILES)
    def test_matches_scalar_sense_loop(self, rng_pair, false_alarm,
                                       miss_detection):
        batched_rng, scalar_rng = rng_pair
        states = np.random.default_rng(11).integers(0, 2, size=200)
        batch = sense_observations_batched(
            states, false_alarm, miss_detection, rng=batched_rng)
        sensor = SpectrumSensor(false_alarm, miss_detection, rng=scalar_rng)
        scalars = [sensor.sense(m % 4, int(s)).observation
                   for m, s in enumerate(states)]
        assert batch.tolist() == scalars
        assert (batched_rng.bit_generator.state
                == scalar_rng.bit_generator.state)

    def test_sensor_method_shares_the_stream(self, rng_pair):
        batched_rng, scalar_rng = rng_pair
        batched = SpectrumSensor(0.2, 0.15, rng=batched_rng)
        scalar = SpectrumSensor(0.2, 0.15, rng=scalar_rng)
        states = [0, 1, 1, 0, 1, 0, 0, 1]
        batch = batched.sense_batched(states)
        scalars = [scalar.sense(0, s).observation for s in states]
        assert batch.tolist() == scalars

    def test_empty_batch_consumes_nothing(self, rng_pair):
        batched_rng, scalar_rng = rng_pair
        out = sense_observations_batched([], 0.1, 0.1, rng=batched_rng)
        assert out.size == 0
        assert (batched_rng.bit_generator.state
                == scalar_rng.bit_generator.state)

    def test_invalid_state_rejected(self):
        with pytest.raises(ConfigurationError):
            sense_observations_batched([0, 2], 0.1, 0.1)

    def test_non_1d_rejected(self):
        with pytest.raises(ConfigurationError):
            sense_observations_batched([[0, 1]], 0.1, 0.1)


class TestLikelihoodRatioPair:
    @pytest.mark.parametrize("false_alarm,miss_detection", ERROR_PROFILES)
    def test_matches_per_result_property(self, false_alarm, miss_detection):
        lr_busy, lr_idle = likelihood_ratio_pair(false_alarm, miss_detection)
        busy = SensingResult(channel=0, observation=1,
                             false_alarm=false_alarm,
                             miss_detection=miss_detection)
        idle = SensingResult(channel=0, observation=0,
                             false_alarm=false_alarm,
                             miss_detection=miss_detection)
        assert lr_busy == busy.likelihood_ratio
        assert lr_idle == idle.likelihood_ratio


def _fuzz_fusion_case(rng, false_alarm, miss_detection):
    """Random per-channel priors, observation matrix, and counts."""
    n_channels = int(rng.integers(1, 8))
    max_obs = int(rng.integers(0, 7))
    priors = rng.uniform(0.0, 1.0, n_channels)
    # Hit the eta in {0, 1} short-circuits now and then.
    for eta in (0.0, 1.0):
        if rng.random() < 0.2 and n_channels > 1:
            priors[int(rng.integers(0, n_channels))] = eta
    observations = rng.integers(0, 2, size=(n_channels, max_obs)).astype(np.int8)
    counts = rng.integers(0, max_obs + 1, size=n_channels)
    return priors, observations, counts


class TestBatchedFusion:
    @pytest.mark.parametrize("false_alarm,miss_detection", ERROR_PROFILES)
    def test_matches_scalar_fusion_fuzzed(self, false_alarm, miss_detection):
        rng = np.random.default_rng(hash((false_alarm, miss_detection)) % 2**32)
        for _ in range(60):
            priors, observations, counts = _fuzz_fusion_case(
                rng, false_alarm, miss_detection)
            batch = fuse_posteriors_batched(
                priors, observations, counts, false_alarm, miss_detection)
            for m in range(priors.size):
                results = _results(m, observations[m, :counts[m]],
                                   false_alarm, miss_detection)
                scalar = fuse_posterior(float(priors[m]), results)
                assert batch[m] == scalar, (
                    f"channel {m}: batched {batch[m]!r} != scalar {scalar!r} "
                    f"(eta={priors[m]}, obs={observations[m, :counts[m]]}, "
                    f"eps={false_alarm}, delta={miss_detection})")

    def test_no_observations_returns_prior_complement(self):
        priors = np.array([0.3, 0.7, 0.0, 1.0])
        batch = fuse_posteriors_batched(
            priors, np.zeros((4, 0), dtype=np.int8), np.zeros(4, dtype=int),
            0.1, 0.1)
        assert batch.tolist() == [0.7, 1 - 0.7, 1.0, 0.0]

    def test_long_sequences_stay_in_log_space(self):
        # 2000 consistent busy reports would overflow a naive LR product;
        # the scalar path works in log space and so must the batched one.
        observations = np.ones((1, 2000), dtype=np.int8)
        batch = fuse_posteriors_batched(
            [0.5], observations, [2000], 0.1, 0.1)
        scalar = fuse_posterior(0.5, _results(0, observations[0], 0.1, 0.1))
        assert batch[0] == scalar == 0.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            fuse_posteriors_batched([0.5, 0.5], np.zeros((3, 2)), [1, 1, 1],
                                    0.1, 0.1)

    def test_counts_out_of_range_rejected(self):
        with pytest.raises(ConfigurationError):
            fuse_posteriors_batched([0.5], np.zeros((1, 2)), [3], 0.1, 0.1)


class TestBatchedBeliefTracking:
    def test_multi_slot_trajectory_matches_scalar(self):
        rng = np.random.default_rng(17)
        n_channels, eps, delta = 5, 0.15, 0.1
        batched = ChannelBeliefTracker(n_channels, 0.2, 0.3)
        scalar = ChannelBeliefTracker(n_channels, 0.2, 0.3)
        for _ in range(25):
            priors_b = batched.predict()
            priors_s = scalar.predict()
            assert np.array_equal(priors_b, priors_s)
            max_obs = int(rng.integers(0, 5))
            observations = rng.integers(
                0, 2, size=(n_channels, max_obs)).astype(np.int8)
            counts = rng.integers(0, max_obs + 1, size=n_channels)
            batch = batched.fuse_batched(observations, counts, eps, delta)
            scalars = np.array([
                scalar.fuse(m, _results(m, observations[m, :counts[m]],
                                        eps, delta))
                for m in range(n_channels)
            ])
            assert np.array_equal(batch, scalars)
            assert np.array_equal(batched.busy_priors, scalar.busy_priors)

    def test_degenerate_profile_trajectory(self):
        batched = ChannelBeliefTracker(3, 0.4, 0.4)
        scalar = ChannelBeliefTracker(3, 0.4, 0.4)
        observations = np.array([[1], [0], [1]], dtype=np.int8)
        counts = np.ones(3, dtype=int)
        for _ in range(4):
            batch = batched.fuse_batched(observations, counts, 0.0, 0.3)
            scalars = np.array([
                scalar.fuse(m, _results(m, observations[m], 0.0, 0.3))
                for m in range(3)
            ])
            assert np.array_equal(batch, scalars)


@pytest.mark.parametrize("policy_cls", [AccessPolicy, HardThresholdAccessPolicy])
class TestBatchedAccess:
    def test_decide_batched_matches_decide(self, policy_cls):
        rng = np.random.default_rng(23)
        for _ in range(40):
            n_channels = int(rng.integers(1, 9))
            caps = rng.uniform(0.01, 0.6, n_channels)
            seed = int(rng.integers(0, 2**31))
            batched = policy_cls(caps, rng=np.random.default_rng(seed))
            scalar = policy_cls(caps, rng=np.random.default_rng(seed))
            for _ in range(5):
                posteriors = rng.uniform(0.0, 1.0, n_channels)
                if rng.random() < 0.25:
                    posteriors[int(rng.integers(0, n_channels))] = rng.choice(
                        [0.0, 1.0])
                a = batched.decide_batched(posteriors)
                b = scalar.decide(posteriors)
                assert np.array_equal(a.access_probabilities,
                                      b.access_probabilities)
                assert np.array_equal(a.decisions, b.decisions)
                assert np.array_equal(a.posteriors, b.posteriors)
                assert a.expected_available == b.expected_available

    def test_access_probabilities_match_scalar_rule(self, policy_cls):
        rng = np.random.default_rng(29)
        caps = rng.uniform(0.01, 0.5, 12)
        policy = policy_cls(caps)
        posteriors = rng.uniform(0.0, 1.0, 12)
        batch = policy.access_probabilities(posteriors)
        scalars = np.array([
            policy.access_probability(m, float(posteriors[m]))
            for m in range(12)
        ])
        assert np.array_equal(batch, scalars)

    def test_rng_stream_identical_after_decisions(self, policy_cls):
        batched = policy_cls([0.1, 0.2], rng=np.random.default_rng(7))
        scalar = policy_cls([0.1, 0.2], rng=np.random.default_rng(7))
        posteriors = np.array([0.8, 0.4])
        batched.decide_batched(posteriors)
        scalar.decide(posteriors)
        assert (batched._rng.bit_generator.state
                == scalar._rng.bit_generator.state)


class TestEngineSensingEquivalence:
    """The engine's fused per-slot sensing phase against the scalar oracle."""

    def test_sense_fuse_batched_matches_scalar(self, small_scenario):
        from repro.sim.engine import SimulationEngine
        from tests.oracle import sense_fuse_scalar
        batched = SimulationEngine(small_scenario)
        scalar = SimulationEngine(small_scenario)
        rng = np.random.default_rng(31)
        n_channels = small_scenario.n_channels
        for slot in range(3 * n_channels):
            batched._slot = scalar._slot = slot
            occupancy = rng.integers(0, 2, size=n_channels)
            a = batched._sense_fuse_batched(occupancy)
            b = sense_fuse_scalar(scalar, occupancy)
            assert np.array_equal(a, b)
            assert (batched._sensing_rng.bit_generator.state
                    == scalar._sensing_rng.bit_generator.state)

    def test_layout_cache_is_periodic(self, small_scenario):
        from repro.sim.engine import SimulationEngine
        engine = SimulationEngine(small_scenario)
        occupancy = np.zeros(small_scenario.n_channels, dtype=int)
        for slot in range(2 * small_scenario.n_channels):
            engine._slot = slot
            engine._sense_fuse_batched(occupancy)
        assert len(engine._sensing_layout) == small_scenario.n_channels


def test_log_likelihood_values_use_libm():
    """The two log-LR constants must come from math.log, not np.log."""
    lr_busy, lr_idle = likelihood_ratio_pair(0.13, 0.07)
    batch = fuse_posteriors_batched(
        [0.5], np.array([[1, 0]], dtype=np.int8), [2], 0.13, 0.07)
    expected = 1.0 / (1.0 + math.exp(math.log(1.0)
                                     + math.log(lr_busy) + math.log(lr_idle)))
    assert batch[0] == expected
