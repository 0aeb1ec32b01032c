"""Tests for the exact water-filling oracle."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils.errors import ConfigurationError
from tests.reference import water_filling


class TestKnownCases:
    def test_single_user_gets_whole_slot(self):
        rho, value = water_filling([0.9], [30.0], [1.0])
        assert rho == [pytest.approx(1.0)]
        assert value == pytest.approx(0.9 * math.log1p(1.0 / 30.0))

    def test_symmetric_users_split_equally(self):
        rho, _ = water_filling([0.8, 0.8], [30.0, 30.0], [1.0, 1.0])
        assert rho[0] == pytest.approx(0.5)
        assert rho[1] == pytest.approx(0.5)

    def test_budget_always_binds(self):
        # Log utility: any positive-weight user wants more time.
        rho, _ = water_filling([0.5, 0.7, 0.9], [28.0, 30.0, 32.0],
                               [0.5, 1.0, 2.0])
        assert sum(rho) == pytest.approx(1.0)

    def test_zero_weight_user_excluded(self):
        rho, value = water_filling([0.0, 0.8], [30.0, 30.0], [1.0, 1.0])
        assert rho[0] == 0.0
        assert rho[1] == pytest.approx(1.0)

    def test_zero_slope_user_excluded(self):
        rho, _ = water_filling([0.8, 0.8], [30.0, 30.0], [0.0, 1.0])
        assert rho[0] == 0.0
        assert rho[1] == pytest.approx(1.0)

    def test_all_degenerate_users(self):
        rho, value = water_filling([0.0, 0.0], [30.0, 30.0], [1.0, 1.0])
        assert rho == [0.0, 0.0]
        assert value == 0.0

    def test_empty_input(self):
        rho, value = water_filling([], [], [])
        assert rho == []
        assert value == 0.0

    def test_low_state_user_prioritised(self):
        # Equal links, one user far behind: water-filling favours it.
        rho, _ = water_filling([0.8, 0.8], [27.0, 40.0], [1.0, 1.0])
        assert rho[0] > rho[1]


class TestKktConditions:
    def test_active_users_share_marginal_utility(self):
        weights = [0.6, 0.8, 0.95]
        bases = [28.0, 31.0, 27.5]
        slopes = [1.2, 0.8, 1.5]
        rho, _ = water_filling(weights, bases, slopes)
        marginals = [
            weights[j] * slopes[j] / (bases[j] + rho[j] * slopes[j])
            for j in range(3) if rho[j] > 1e-12
        ]
        assert max(marginals) - min(marginals) < 1e-9

    def test_inactive_users_have_lower_marginal(self):
        weights = [0.9, 0.05]
        bases = [28.0, 35.0]
        slopes = [2.0, 0.1]
        rho, _ = water_filling(weights, bases, slopes)
        assert rho[1] == 0.0
        water_level = weights[0] * slopes[0] / (bases[0] + rho[0] * slopes[0])
        idle_marginal = weights[1] * slopes[1] / bases[1]
        assert idle_marginal <= water_level + 1e-12


class TestAgainstScipy:
    def test_matches_slsqp_on_random_instances(self):
        from scipy.optimize import minimize
        rng = np.random.default_rng(4)
        for _ in range(25):
            n = int(rng.integers(1, 6))
            weights = rng.random(n)
            bases = 20.0 + 10.0 * rng.random(n)
            slopes = rng.random(n) * 3.0
            _rho, value = water_filling(weights, bases, slopes)

            def negative(x):
                return -sum(weights[j] * np.log1p(x[j] * slopes[j] / bases[j])
                            for j in range(n))

            result = minimize(
                negative, np.full(n, 1.0 / n), bounds=[(0.0, 1.0)] * n,
                constraints=[{"type": "ineq", "fun": lambda x: 1.0 - x.sum()}],
                method="SLSQP")
            assert value >= -result.fun - 1e-8


class TestProperties:
    @given(
        n=st.integers(1, 8),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=80, deadline=None)
    def test_property_feasible_and_optimal_structure(self, n, seed):
        rng = np.random.default_rng(seed)
        weights = rng.random(n)
        bases = 20.0 + 10.0 * rng.random(n)
        slopes = rng.random(n) * 3.0
        rho, value = water_filling(weights, bases, slopes)
        assert all(r >= 0.0 for r in rho)
        assert sum(rho) <= 1.0 + 1e-9
        assert value >= -1e-12
        # Perturbing any pair of active shares cannot improve the value.
        active = [j for j in range(n) if rho[j] > 1e-6]
        if len(active) >= 2:
            a, b = active[0], active[1]
            eps = min(rho[a], rho[b], 1e-4) / 2.0
            for sign in (+1, -1):
                perturbed = list(rho)
                perturbed[a] += sign * eps
                perturbed[b] -= sign * eps
                perturbed_value = sum(
                    weights[j] * math.log1p(perturbed[j] * slopes[j] / bases[j])
                    for j in range(n))
                assert perturbed_value <= value + 1e-10


class TestValidation:
    def test_length_mismatch(self):
        with pytest.raises(ConfigurationError):
            water_filling([0.5], [30.0, 30.0], [1.0])

    def test_nonpositive_base(self):
        with pytest.raises(ConfigurationError):
            water_filling([0.5], [0.0], [1.0])

    def test_negative_weight(self):
        with pytest.raises(ConfigurationError):
            water_filling([-0.5], [30.0], [1.0])
