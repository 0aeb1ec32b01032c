"""Tests for the two-state occupancy chains (Section III-A, eq. 1)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.scenarios import utilization_to_p01
from repro.spectrum.markov import BUSY, IDLE, OccupancyChain
from repro.utils.errors import ConfigurationError
from tests.reference import stationary_distribution


class TestUtilization:
    def test_paper_parameters(self):
        # P01 = 0.4, P10 = 0.3 (Section V-A) => eta = 0.4/0.7.
        chain = OccupancyChain(0.4, 0.3, rng=0)
        assert chain.utilization == pytest.approx(0.4 / 0.7)

    def test_empirical_utilization_matches_eq1(self):
        chain = OccupancyChain(0.4, 0.3, rng=1)
        states = chain.sample_trajectory(40000)
        assert states.mean() == pytest.approx(chain.utilization, abs=0.02)

    @given(p01=st.floats(0.05, 0.95), p10=st.floats(0.05, 0.95))
    @settings(max_examples=30)
    def test_property_utilization_formula(self, p01, p10):
        chain = OccupancyChain(p01, p10, rng=0)
        assert chain.utilization == pytest.approx(p01 / (p01 + p10))


class TestDynamics:
    def test_initial_state_respected(self):
        assert OccupancyChain(0.4, 0.3, initial_state=IDLE, rng=0).state == IDLE
        assert OccupancyChain(0.4, 0.3, initial_state=BUSY, rng=0).state == BUSY

    def test_stationary_initialisation(self):
        # With a stationary start, slot-0 busy frequency matches eta.
        busy = sum(OccupancyChain(0.4, 0.3, rng=seed).state
                   for seed in range(2000))
        assert busy / 2000 == pytest.approx(0.4 / 0.7, abs=0.05)

    def test_deterministic_with_seed(self):
        a = OccupancyChain(0.4, 0.3, initial_state=0, rng=5).sample_trajectory(100)
        b = OccupancyChain(0.4, 0.3, initial_state=0, rng=5).sample_trajectory(100)
        assert np.array_equal(a, b)

    def test_absorbing_idle(self):
        chain = OccupancyChain(0.0, 1.0, initial_state=BUSY, rng=0)
        states = chain.sample_trajectory(10)
        assert states[0] == IDLE
        assert np.all(states == IDLE)

    def test_transition_frequencies(self):
        chain = OccupancyChain(0.25, 0.6, initial_state=IDLE, rng=2)
        states = np.concatenate([[IDLE], chain.sample_trajectory(60000)])
        idle_to_busy = np.sum((states[:-1] == IDLE) & (states[1:] == BUSY))
        idle_total = np.sum(states[:-1] == IDLE)
        assert idle_to_busy / idle_total == pytest.approx(0.25, abs=0.01)

    def test_transition_matrix_row_stochastic(self):
        matrix = OccupancyChain(0.4, 0.3, rng=0).transition_matrix()
        assert np.allclose(matrix.sum(axis=1), 1.0)
        assert matrix[0, 1] == 0.4
        assert matrix[1, 0] == 0.3

    def test_negative_trajectory_rejected(self):
        with pytest.raises(ConfigurationError):
            OccupancyChain(0.4, 0.3, rng=0).sample_trajectory(-1)


class TestValidation:
    def test_frozen_chain_rejected(self):
        with pytest.raises(ConfigurationError):
            OccupancyChain(0.0, 0.0)

    @pytest.mark.parametrize("p01,p10", [(-0.1, 0.3), (0.4, 1.5)])
    def test_invalid_probabilities(self, p01, p10):
        with pytest.raises(ConfigurationError):
            OccupancyChain(p01, p10)

    def test_invalid_initial_state(self):
        with pytest.raises(ConfigurationError):
            OccupancyChain(0.4, 0.3, initial_state=2)


class TestUtilizationInversion:
    @pytest.mark.parametrize("eta", [0.3, 0.4, 0.5, 0.6, 0.7])
    def test_round_trip(self, eta):
        # The Fig. 4(c)/6(a) sweep: p10 fixed at 0.3.
        p01 = utilization_to_p01(eta, p10=0.3)
        assert OccupancyChain(p01, 0.3, rng=0).utilization == pytest.approx(eta)

    def test_unreachable_utilization(self):
        with pytest.raises(ConfigurationError):
            utilization_to_p01(0.9, p10=0.5)

    def test_degenerate_eta_rejected(self):
        with pytest.raises(ConfigurationError):
            utilization_to_p01(0.0)
        with pytest.raises(ConfigurationError):
            utilization_to_p01(1.0)


class TestStationaryDistribution:
    def test_sums_to_one(self):
        dist = stationary_distribution(0.4, 0.3)
        assert dist.sum() == pytest.approx(1.0)
        assert dist[1] == pytest.approx(0.4 / 0.7)

    def test_is_fixed_point(self):
        chain = OccupancyChain(0.25, 0.6, rng=0)
        dist = stationary_distribution(0.25, 0.6)
        assert np.allclose(dist @ chain.transition_matrix(), dist)
