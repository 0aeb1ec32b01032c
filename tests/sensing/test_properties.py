"""Property-based tests for sensing fusion and channel access.

Hypothesis fuzzes priors, sensor error profiles (including the exact
0/1 corners), observation sequences, and collision caps:

* fused beliefs must always be valid probabilities, in the scalar and
  the batched fusion alike;
* the access rule must keep the per-channel expected collision
  probability ``(1 - P_A) * P_D`` under the cap ``gamma_m`` (eq. 6),
  for the probabilistic and the hard-threshold policy.  Each policy
  defines its rule once (``access_rule``); the properties are checked
  on the probabilities ``decide`` actually draws against, and on the
  per-channel and array helpers, which must agree with them bit for
  bit.
"""

import struct


import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sensing.access import AccessPolicy, HardThresholdAccessPolicy
from repro.sensing.detector import SensingResult
from repro.sensing.fusion import (
    fuse_iterative,
    fuse_posterior,
    fuse_posteriors_batched,
)

probabilities = st.floats(min_value=0.0, max_value=1.0,
                          allow_nan=False, allow_infinity=False)
# Error rates with the degenerate corners over-weighted: the 0/1 values
# trigger the zero/infinite likelihood-ratio short-circuits.
error_rates = st.one_of(st.sampled_from([0.0, 1.0]), probabilities)
observation_vectors = st.lists(st.integers(0, 1), min_size=0, max_size=12)


def _results(observations, false_alarm, miss_detection):
    return [
        SensingResult(channel=0, observation=obs, false_alarm=false_alarm,
                      miss_detection=miss_detection, sensor_id=k)
        for k, obs in enumerate(observations)
    ]


@settings(max_examples=300)
@given(eta=probabilities, false_alarm=error_rates,
       miss_detection=error_rates, observations=observation_vectors)
def test_fused_belief_is_valid_probability(eta, false_alarm,
                                           miss_detection, observations):
    results = _results(observations, false_alarm, miss_detection)
    posterior = fuse_posterior(eta, results)
    assert 0.0 <= posterior <= 1.0
    iterative = fuse_iterative(eta, results)
    assert 0.0 <= iterative <= 1.0


@settings(max_examples=300)
@given(etas=st.lists(probabilities, min_size=1, max_size=8),
       false_alarm=error_rates, miss_detection=error_rates,
       observations=observation_vectors, data=st.data())
def test_batched_fused_beliefs_are_valid_and_match_scalar(
        etas, false_alarm, miss_detection, observations, data):
    n_channels = len(etas)
    matrix = np.zeros((n_channels, len(observations)), dtype=np.int8)
    counts = np.zeros(n_channels, dtype=np.int64)
    for m in range(n_channels):
        counts[m] = data.draw(st.integers(0, len(observations)),
                              label=f"count[{m}]")
        matrix[m, :counts[m]] = observations[:counts[m]]
    posteriors = fuse_posteriors_batched(
        etas, matrix, counts, false_alarm, miss_detection)
    assert np.all(posteriors >= 0.0)
    assert np.all(posteriors <= 1.0)
    for m in range(n_channels):
        scalar = fuse_posterior(
            etas[m], _results(matrix[m, :counts[m]].tolist(),
                              false_alarm, miss_detection))
        assert posteriors[m] == scalar


# The collision product gamma/(1-P_A) * (1-P_A) may round one ulp above
# gamma; allow exactly that much headroom.
def _cap_with_slack(gamma):
    return gamma + np.spacing(max(gamma, np.finfo(float).tiny))


def _rule_outputs(policy, posteriors):
    """``P_D`` per channel from ``decide``, checked against every other
    entry point to the policy's one rule."""
    probs = policy.decide(posteriors).access_probabilities
    per_channel = [policy.access_probability(m, float(posteriors[m]))
                   for m in range(len(posteriors))]
    rule = [policy.access_rule(float(gamma), float(posterior))
            for gamma, posterior in zip(policy.collision_caps, posteriors)]
    packed = struct.pack(f"<{len(probs)}d", *probs.tolist())
    for other in (per_channel, rule,
                  policy.access_probabilities(posteriors).tolist()):
        assert struct.pack(f"<{len(other)}d", *other) == packed
    return probs


@settings(max_examples=300)
@given(caps=st.lists(st.floats(min_value=1e-9, max_value=1.0,
                               allow_nan=False), min_size=1, max_size=8),
       data=st.data())
def test_probabilistic_policy_respects_collision_cap(caps, data):
    policy = AccessPolicy(caps)
    posteriors = np.array([
        data.draw(probabilities, label=f"posterior[{m}]")
        for m in range(len(caps))
    ])
    probs = _rule_outputs(policy, posteriors)
    assert np.all(probs >= 0.0)
    assert np.all(probs <= 1.0)
    for m, gamma in enumerate(caps):
        collision = (1.0 - posteriors[m]) * probs[m]
        assert collision <= _cap_with_slack(gamma)


@settings(max_examples=300)
@given(caps=st.lists(st.floats(min_value=1e-9, max_value=1.0,
                               allow_nan=False), min_size=1, max_size=8),
       data=st.data())
def test_threshold_policy_respects_collision_cap(caps, data):
    policy = HardThresholdAccessPolicy(caps)
    posteriors = np.array([
        data.draw(probabilities, label=f"posterior[{m}]")
        for m in range(len(caps))
    ])
    probs = _rule_outputs(policy, posteriors)
    assert set(np.unique(probs)) <= {0.0, 1.0}
    for m, gamma in enumerate(caps):
        collision = (1.0 - posteriors[m]) * probs[m]
        assert collision <= _cap_with_slack(gamma)


@settings(max_examples=100)
@given(gamma=st.floats(min_value=1e-9, max_value=1.0, allow_nan=False),
       posterior=probabilities)
def test_probabilistic_policy_is_maximal_under_the_cap(gamma, posterior):
    """Eq. (7): P_D is the *largest* probability satisfying the cap."""
    policy = AccessPolicy([gamma])
    prob = float(_rule_outputs(policy, np.array([posterior]))[0])
    busy = 1.0 - posterior
    if busy <= gamma:
        assert prob == 1.0
    else:
        assert prob == gamma / busy
