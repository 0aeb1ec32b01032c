"""Differential tests: the production sensing path vs the scalar oracle.

Every sensing primitive -- observation realisation, Bayesian fusion,
belief tracking, access decisions -- is pinned bit for bit (IEEE-754
bytes, plus the generator states) to the scalar seed implementation
over fuzzed inputs, including the degenerate ``epsilon, delta in
{0, 1}`` corners where the scalar path short-circuits on zero/infinite
likelihood ratios.  The engine's per-slot sensing + fusion + access is
pinned at the shapes that run: Fig. 4 (1 FBS, 3 users, M = 4-12),
Fig. 6 (3 FBSs, 9 users) and the 20x20 city grid (400 FBSs, 1200
users, M = 8).
"""

import math
import struct

import numpy as np
import pytest

from repro.experiments.citygrid import city_grid_scenario
from repro.experiments.scenarios import (
    interfering_fbs_scenario,
    single_fbs_scenario,
)
from repro.sensing.access import AccessPolicy, HardThresholdAccessPolicy
from repro.sensing.belief import ChannelBeliefTracker
from repro.sensing.detector import (
    SensingProfile,
    SensingResult,
    SpectrumSensor,
    sense_observations_batched,
)
from repro.sensing.fusion import (
    fuse_log_odds,
    fuse_posterior,
    fuse_posteriors_batched,
    likelihood_ratio_pair,
    prior_log_odds,
)
from repro.sim.build import build_scenario
from repro.sim.engine import SimulationEngine
from repro.testing.faults import FaultPlan
from repro.utils.errors import ConfigurationError


def bits(values):
    """The IEEE-754 bytes of a float sequence (``==`` hides -0.0 and NaN)."""
    values = [float(value) for value in values]
    return struct.pack(f"<{len(values)}d", *values)

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
                assert bits([batch[m]]) == bits([scalar]), (
                    f"channel {m}: batched {batch[m]!r} != scalar {scalar!r} "
                    f"(eta={priors[m]}, obs={observations[m, :counts[m]]}, "
                    f"eps={false_alarm}, delta={miss_detection})")

    def test_no_observations_returns_prior_complement(self):
        priors = np.array([0.3, 0.7, 0.0, 1.0])
        batch = fuse_posteriors_batched(
            priors, np.zeros((4, 0), dtype=np.int8), np.zeros(4, dtype=int),
            0.1, 0.1)
        assert batch.tolist() == [0.7, 1 - 0.7, 1.0, 0.0]
        assert bits(batch) == bits(
            [fuse_posterior(float(eta), []) for eta in priors])

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
            assert bits(priors_b) == bits(priors_s)
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
            assert bits(batch) == bits(scalars)
            assert bits(batched.busy_priors) == bits(scalar.busy_priors)

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
            assert bits(batch) == bits(scalars)


@pytest.mark.parametrize("policy_cls", [AccessPolicy, HardThresholdAccessPolicy])
class TestBatchedAccess:
    def test_decide_matches_scalar_oracle(self, policy_cls):
        from tests.oracle import decide_scalar
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
                a = batched.decide(posteriors)
                b = decide_scalar(scalar, posteriors)
                assert_decisions_identical(a, b)

    def test_access_probabilities_match_scalar_rule(self, policy_cls):
        rng = np.random.default_rng(29)
        caps = rng.uniform(0.01, 0.5, 12)
        policy = policy_cls(caps)
        posteriors = rng.uniform(0.0, 1.0, 12)
        batch = policy.access_probabilities(posteriors)
        scalars = [policy.access_probability(m, float(posteriors[m]))
                   for m in range(12)]
        assert bits(batch) == bits(scalars)

    def test_rng_stream_identical_after_decisions(self, policy_cls):
        from tests.oracle import decide_scalar
        batched = policy_cls([0.1, 0.2], rng=np.random.default_rng(7))
        scalar = policy_cls([0.1, 0.2], rng=np.random.default_rng(7))
        posteriors = np.array([0.8, 0.4])
        batched.decide(posteriors)
        decide_scalar(scalar, posteriors)
        assert (batched._rng.bit_generator.state
                == scalar._rng.bit_generator.state)


def assert_decisions_identical(a, b):
    """Two AccessDecisions agree in every bit, A(t) and G_t included."""
    assert bits(a.access_probabilities) == bits(b.access_probabilities)
    assert a.decisions.dtype == b.decisions.dtype == np.int8
    assert a.decisions.tobytes() == b.decisions.tobytes()
    assert bits(a.posteriors) == bits(b.posteriors)
    assert a.accessed == b.accessed == a.available_channels.tolist()
    assert bits([a.expected_available]) == bits([b.expected_available])
    assert bits([a.expected_available]) == bits(
        [a.posteriors[a.available_channels].sum()])


def _fig4(n_channels, **overrides):
    return single_fbs_scenario(n_gops=1, n_channels=n_channels, seed=41,
                               **overrides)


def _fig6(n_channels, **overrides):
    return interfering_fbs_scenario(n_gops=1, n_channels=n_channels,
                                    seed=43, **overrides)


def _city(**overrides):
    return city_grid_scenario(rows=20, cols=20, n_channels=8, n_gops=1,
                              seed=47, **overrides)


#: The production shapes the engine runs, by name.
SHAPES = {
    "fig4-M4": lambda **kw: _fig4(4, **kw),
    "fig4-M8": lambda **kw: _fig4(8, **kw),
    "fig4-M12": lambda **kw: _fig4(12, **kw),
    "fig6-M4": lambda **kw: _fig6(4, **kw),
    "fig6-M12": lambda **kw: _fig6(12, **kw),
    "citygrid-M8": _city,
}

#: Every corner of the sensing path: scenario overrides, config
#: replacements.  eta in {0, 1} comes from p01 = 0 / p10 = 0.
CORNERS = {
    "plain": ({}, {}),
    "eps0": ({"false_alarm": 0.0}, {}),
    "delta0": ({"miss_detection": 0.0}, {}),
    "eps0-delta0": ({"false_alarm": 0.0, "miss_detection": 0.0}, {}),
    "eps1-delta1": ({"false_alarm": 1.0, "miss_detection": 1.0}, {}),
    "eps0-delta1": ({"false_alarm": 0.0, "miss_detection": 1.0}, {}),
    "eps1-delta0.3": ({"false_alarm": 1.0, "miss_detection": 0.3}, {}),
    "eta0": ({"p01": 0.0}, {}),
    "eta1": ({"p01": 0.3, "p10": 0.0}, {}),
    "outage": ({}, {"fault_plan": FaultPlan(
        sensing_outage_slots=frozenset({0, 2, 3, 7}),
        sensing_outage_channels=frozenset({0, 3}))}),
    "outage-all": ({}, {"fault_plan": FaultPlan(
        sensing_outage_slots=frozenset({1, 4}))}),
    "a1-threshold": ({}, {"access_policy": "threshold"}),
    "a2-single-observation": ({}, {"single_observation_fusion": True}),
    "a5-belief-tracking": ({}, {"belief_tracking": True}),
    "a5-belief-eps0-delta0": ({"false_alarm": 0.0, "miss_detection": 0.0},
                              {"belief_tracking": True}),
}


def _cases():
    for shape in SHAPES:
        for corner, (overrides, replacements) in CORNERS.items():
            if shape.startswith("citygrid") and (
                    "belief_tracking" in replacements
                    or "p01" in overrides or "p10" in overrides):
                # The city grid sets per-channel utilisations, which
                # exclude belief tracking and fix eta in (0, 1).
                continue
            yield pytest.param(shape, corner, id=f"{shape}-{corner}")


def _config(shape, corner):
    overrides, replacements = CORNERS[corner]
    return SHAPES[shape](**overrides).replace(**replacements)


class TestEngineSensingEquivalence:
    """The engine's per-slot sensing, fusion and access vs the oracle."""

    @pytest.mark.parametrize("shape,corner", list(_cases()))
    def test_slot_phases_match_oracle_bit_for_bit(self, shape, corner):
        from tests.oracle import decide_scalar, sense_fuse_scalar
        config = _config(shape, corner)
        production = SimulationEngine(config)
        oracle = SimulationEngine(config)
        n_channels = config.n_channels
        rng = np.random.default_rng(53)
        # Two full round-robin periods: every user offset, twice.
        for slot in range(2 * n_channels if n_channels <= 8 else n_channels):
            production._slot = oracle._slot = slot
            occupancy = production.spectrum.advance().occupancy
            assert oracle.spectrum.advance().occupancy.tobytes() == \
                occupancy.tobytes()
            if corner.startswith("eta"):
                # A certain prior: sensing the (only possible) truth.
                occupancy = np.full(n_channels, int(corner == "eta1"),
                                    dtype=np.int8)
            elif corner == "plain":
                occupancy = rng.integers(0, 2, n_channels).astype(np.int8)
            a = production._sense_fuse_batched(occupancy)
            b = sense_fuse_scalar(oracle, occupancy)
            assert isinstance(a, list)
            assert bits(a) == bits(b), f"slot {slot}"
            assert (production._sensing_rng.bit_generator.state
                    == oracle._sensing_rng.bit_generator.state)
            if production.belief_tracker is not None:
                assert bits(production.belief_tracker.busy_priors) == bits(
                    oracle.belief_tracker.busy_priors)
            assert [(e.slot, e.detail) for e in production.degradations] == \
                [(e.slot, e.detail) for e in oracle.degradations]
            decision = production.access_policy.decide(a)
            assert_decisions_identical(
                decision, decide_scalar(oracle.access_policy, b))
            assert (production.access_policy._rng.bit_generator.state
                    == oracle.access_policy._rng.bit_generator.state)

    def test_sense_fuse_batched_matches_scalar(self, small_scenario):
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
            assert bits(a) == bits(b)
            assert (batched._sensing_rng.bit_generator.state
                    == scalar._sensing_rng.bit_generator.state)

    def test_users_follow_the_round_robin_rule(self):
        """User k (sorted ids) senses channel (k + slot) % M."""
        config = _fig6(4)
        engine = SimulationEngine(config)
        n_users = len(config.topology.users)
        occupancy = np.zeros(config.n_channels, dtype=np.int8)
        for slot in range(2 * config.n_channels + 1):
            engine._slot = slot
            engine._sense_fuse_batched(occupancy)
            user_channels = engine._obs_channels[-n_users:].tolist()
            assert user_channels == [(k + slot) % config.n_channels
                                     for k in range(n_users)]

    def test_csi_validated_once_and_drawn_as_the_oracle(self):
        from tests.oracle import draw_csi
        config = _city()
        production = SimulationEngine(config)
        oracle = SimulationEngine(config)
        for _ in range(3):
            a = production._draw_csi_batched()
            b = draw_csi(oracle)
            assert list(a) == list(b)
            assert bits([x for pair in a.values() for x in pair]) == bits(
                [x for pair in b.values() for x in pair])
            assert (production._fading_rng.bit_generator.state
                    == oracle._fading_rng.bit_generator.state)


class TestValidation:
    """Every ConfigurationError the per-slot path raised still fires --
    static inputs once at build, per-slot data every slot."""

    def test_bad_state_rejected_before_any_draw(self):
        engine = SimulationEngine(_fig4(4))
        before = engine._sensing_rng.bit_generator.state
        with pytest.raises(ConfigurationError, match="true_state"):
            engine._sense_fuse_batched(np.array([0, 2, 1, 0], dtype=np.int8))
        assert engine._sensing_rng.bit_generator.state == before

    def test_bad_tracked_prior_rejected_in_the_slot(self):
        engine = SimulationEngine(_fig4(4).replace(belief_tracking=True))
        # A corrupted chain: predict() pushes the beliefs out of [0, 1].
        engine.belief_tracker._p10[:] = -0.5
        with pytest.raises(ConfigurationError, match="busy_priors"):
            engine._sense_fuse_batched(np.zeros(4, dtype=np.int8))

    def test_bad_static_priors_rejected(self):
        with pytest.raises(ConfigurationError, match="busy_priors"):
            prior_log_odds([0.3, 1.5])
        with pytest.raises(ConfigurationError, match="busy_priors"):
            prior_log_odds([float("nan")])
        with pytest.raises(ConfigurationError, match="busy_priors"):
            fuse_posteriors_batched([-0.1], np.zeros((1, 1)), [1], 0.1, 0.1)

    @pytest.mark.parametrize("posteriors", [
        [0.5, 1.2, 0.5, 0.5], [0.5, -0.1, 0.5, 0.5],
        [0.5, float("nan"), 0.5, 0.5], [0.5, float("inf"), 0.5, 0.5],
        np.array([[0.5, 0.5, 0.5, 0.5]]), [],
    ])
    def test_bad_posteriors_rejected(self, posteriors):
        engine = SimulationEngine(_fig4(4))
        before = engine.access_policy._rng.bit_generator.state
        with pytest.raises(ConfigurationError):
            engine.access_policy.decide(posteriors)
        assert engine.access_policy._rng.bit_generator.state == before

    @pytest.mark.parametrize("scale", [0.0, -1.0])
    def test_non_positive_csi_scale_rejected_at_build(self, scale):
        config = _fig4(4)
        user_id = config.topology.users[0].user_id
        config.topology.fbs_margin[user_id] = scale
        with pytest.raises(ConfigurationError, match="margins"):
            build_scenario(config)
        with pytest.raises(ConfigurationError, match="margins"):
            SimulationEngine(config)


class TestFuseLogOdds:
    """The one fusion implementation on its own, at production shapes."""

    @pytest.mark.parametrize("n_fbs,n_users,n_channels", [
        (1, 3, 4), (1, 3, 12), (3, 9, 8), (400, 1200, 8), (0, 5, 3)])
    @pytest.mark.parametrize("false_alarm,miss_detection", ERROR_PROFILES)
    def test_matches_scalar_per_channel(self, n_fbs, n_users, n_channels,
                                        false_alarm, miss_detection):
        """FBS rows + round-robin user tail, mixed priors incl. 0 and 1."""
        rng = np.random.default_rng(n_fbs * 1000 + n_users + n_channels)
        lr_busy, lr_idle = likelihood_ratio_pair(false_alarm, miss_detection)
        log_lr = {1: math.log(lr_busy) if lr_busy > 0 else -math.inf,
                  0: math.log(lr_idle) if lr_idle > 0 else -math.inf}
        for trial in range(3):
            priors = rng.uniform(0.0, 1.0, n_channels).tolist()
            priors[0] = [0.0, 1.0, 0.5][trial]
            offset = int(rng.integers(0, 50))
            fbs_obs = rng.integers(0, 2, (n_fbs, n_channels))
            user_obs = rng.integers(0, 2, n_users)
            silenced = frozenset(rng.choice(
                n_channels, size=int(rng.integers(0, 2)), replace=False)
                .tolist())
            terms = np.array([prior_log_odds(priors)]
                             + [[log_lr[o] for o in row] for row in fbs_obs])
            tail = [log_lr[o] for o in user_obs.tolist()]
            with np.errstate(invalid="ignore"):
                fused = fuse_log_odds(terms, tail, offset, silenced)
            for m in range(n_channels):
                observed = [] if m in silenced else (
                    fbs_obs[:, m].tolist()
                    + [o for k, o in enumerate(user_obs.tolist())
                       if (k + offset) % n_channels == m])
                scalar = fuse_posterior(priors[m], _results(
                    m, observed, false_alarm, miss_detection))
                assert bits([fused[m]]) == bits([scalar]), (m, observed)


def test_log_likelihood_values_use_libm():
    """The two log-LR constants must come from math.log, not np.log."""
    lr_busy, lr_idle = likelihood_ratio_pair(0.13, 0.07)
    batch = fuse_posteriors_batched(
        [0.5], np.array([[1, 0]], dtype=np.int8), [2], 0.13, 0.07)
    expected = 1.0 / (1.0 + math.exp(math.log(1.0)
                                     + math.log(lr_busy) + math.log(lr_idle)))
    assert bits(batch) == bits([expected])


@pytest.mark.parametrize("false_alarm,miss_detection",
                         [(0.04, 0.89), (0.06, 0.39), (0.05, 0.92)])
def test_steps_use_libm_where_numpy_log_differs(false_alarm, miss_detection):
    """Profiles whose likelihood ratios numpy's log rounds differently
    from libm's (on this numpy): every key's step is ``math.log``."""
    profile = SensingProfile(false_alarm, miss_detection)
    lr_busy, lr_idle = likelihood_ratio_pair(false_alarm, miss_detection)
    # Keys 0..3: idle seen idle, idle seen busy, busy seen busy, busy
    # seen idle.
    states = np.array([0, 0, 1, 1], dtype=np.int8)
    draws = np.array([0.99, 0.0, 0.99, 0.0])
    steps = profile.log_likelihood_steps(draws, states)
    expected = [math.log(lr_idle), math.log(lr_busy),
                math.log(lr_busy), math.log(lr_idle)]
    assert bits(steps) == bits(expected)
    assert profile.observations(draws, states).tolist() == [0, 1, 1, 0]
