"""Property-based tests for the PHY outage model (eq. 8).

Hypothesis fuzzes mean SINRs and decoding thresholds; the Rayleigh
packet-loss probability ``P^F = 1 - exp(-H / mean)`` must always be a
valid probability and must be monotone -- nonincreasing in the mean
SINR, nondecreasing in the threshold -- in both the scalar and the
batched implementation.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.phy.fading import RayleighFading
from tests.reference import rayleigh_loss_probabilities, rayleigh_success_probabilities

mean_sinrs = st.floats(min_value=1e-6, max_value=1e9,
                       allow_nan=False, allow_infinity=False)
thresholds = st.floats(min_value=0.0, max_value=1e6,
                       allow_nan=False, allow_infinity=False)
mean_lists = st.lists(mean_sinrs, min_size=1, max_size=30)


@settings(max_examples=200)
@given(means=mean_lists, threshold=thresholds)
def test_loss_probability_is_valid(means, threshold):
    losses = rayleigh_loss_probabilities(means, threshold)
    assert np.all(losses >= 0.0)
    assert np.all(losses <= 1.0)
    successes = rayleigh_success_probabilities(means, threshold)
    assert np.all(successes >= 0.0)
    assert np.all(successes <= 1.0)


@settings(max_examples=200)
@given(means=mean_lists, threshold=thresholds)
def test_loss_nonincreasing_in_mean_sinr(means, threshold):
    ordered = np.sort(np.asarray(means))
    losses = rayleigh_loss_probabilities(ordered, threshold)
    assert np.all(np.diff(losses) <= 0.0)


@settings(max_examples=200)
@given(mean=mean_sinrs, low=thresholds, high=thresholds)
def test_loss_nondecreasing_in_threshold(mean, low, high):
    if low > high:
        low, high = high, low
    fading = RayleighFading(mean)
    assert fading.cdf(low) <= fading.cdf(high)


@settings(max_examples=100)
@given(means=mean_lists, threshold=thresholds)
def test_batched_matches_scalar_cdf_under_fuzzing(means, threshold):
    batch = rayleigh_loss_probabilities(means, threshold)
    scalars = np.array([RayleighFading(m).cdf(threshold) for m in means])
    assert np.abs(batch - scalars).max() <= np.spacing(1.0)
