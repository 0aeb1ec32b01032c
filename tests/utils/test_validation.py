"""Tests for repro.utils.validation."""

import numpy as np
import pytest

from repro.utils.errors import ConfigurationError
from repro.utils.validation import (
    check_in_range,
    check_positive,
    check_probability,
    check_probability_array,
)


class TestCheckProbability:
    @pytest.mark.parametrize("value", [0.0, 0.5, 1.0])
    def test_valid(self, value):
        assert check_probability(value, "p") == value

    @pytest.mark.parametrize("value", [-0.1, 1.1, float("nan"), float("inf")])
    def test_invalid(self, value):
        with pytest.raises(ConfigurationError):
            check_probability(value, "p")

    def test_open_endpoints(self):
        with pytest.raises(ConfigurationError):
            check_probability(0.0, "p", allow_zero=False)
        with pytest.raises(ConfigurationError):
            check_probability(1.0, "p", allow_one=False)
        assert check_probability(0.5, "p", allow_zero=False, allow_one=False) == 0.5

    def test_error_names_parameter(self):
        with pytest.raises(ConfigurationError, match="gamma"):
            check_probability(2.0, "gamma")

    def test_non_numeric(self):
        with pytest.raises(ConfigurationError):
            check_probability("abc", "p")


class TestCheckProbabilityArray:
    def test_valid(self):
        arr = check_probability_array([0.1, 0.9], "arr")
        assert isinstance(arr, np.ndarray)
        assert arr.dtype == float

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            check_probability_array([], "arr")

    def test_out_of_range_rejected(self):
        with pytest.raises(ConfigurationError):
            check_probability_array([0.5, 1.5], "arr")

    def test_2d_rejected(self):
        with pytest.raises(ConfigurationError):
            check_probability_array([[0.5]], "arr")

    def test_nan_rejected(self):
        with pytest.raises(ConfigurationError):
            check_probability_array([0.5, float("nan")], "arr")


class TestCheckPositive:
    def test_positive_ok(self):
        assert check_positive(3.5, "x") == 3.5

    def test_zero_rejected_by_default(self):
        with pytest.raises(ConfigurationError):
            check_positive(0.0, "x")

    def test_zero_allowed_when_requested(self):
        assert check_positive(0.0, "x", allow_zero=True) == 0.0

    def test_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            check_positive(-1.0, "x", allow_zero=True)

    def test_inf_rejected(self):
        with pytest.raises(ConfigurationError):
            check_positive(float("inf"), "x")


class TestCheckInRange:
    def test_inclusive(self):
        assert check_in_range(1.0, "x", 1.0, 2.0) == 1.0

    def test_exclusive(self):
        with pytest.raises(ConfigurationError):
            check_in_range(1.0, "x", 1.0, 2.0, inclusive=False)

    def test_outside(self):
        with pytest.raises(ConfigurationError):
            check_in_range(3.0, "x", 1.0, 2.0)
