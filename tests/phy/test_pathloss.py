"""Tests for the log-distance path-loss model."""

import math

import pytest

from repro.phy.pathloss import LogDistancePathLoss, db_to_linear, mean_sinr_db
from repro.utils.errors import ConfigurationError


class TestLogDistance:
    def test_reference_point(self):
        model = LogDistancePathLoss(exponent=3.0, reference_distance_m=1.0,
                                    reference_loss_db=37.0)
        assert model.loss_db(1.0) == pytest.approx(37.0)

    def test_decade_slope(self):
        # Loss grows by 10*n dB per decade of distance.
        model = LogDistancePathLoss(exponent=3.5)
        assert model.loss_db(100.0) - model.loss_db(10.0) == pytest.approx(35.0)

    def test_clamped_below_reference(self):
        model = LogDistancePathLoss(exponent=3.0, reference_distance_m=2.0)
        assert model.loss_db(0.5) == model.loss_db(2.0)

    def test_monotone_in_distance(self):
        model = LogDistancePathLoss(exponent=2.5)
        losses = [model.loss_db(d) for d in (1, 5, 20, 100, 400)]
        assert losses == sorted(losses)

    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            LogDistancePathLoss(exponent=0.0)
        with pytest.raises(ConfigurationError):
            LogDistancePathLoss(reference_distance_m=-1.0)
        with pytest.raises(ConfigurationError):
            LogDistancePathLoss(reference_loss_db=float("nan"))
        with pytest.raises(ConfigurationError):
            LogDistancePathLoss().loss_db(0.0)


class TestMeanSinr:
    def test_noise_only_budget(self):
        model = LogDistancePathLoss(exponent=3.0, reference_loss_db=37.0)
        # rx = 20 - 37 = -17 dBm over a -100 dBm floor => 83 dB SINR.
        assert mean_sinr_db(20.0, 1.0, model) == pytest.approx(83.0)

    def test_interference_reduces_sinr(self):
        model = LogDistancePathLoss(exponent=3.0)
        clean = mean_sinr_db(20.0, 10.0, model)
        interfered = mean_sinr_db(20.0, 10.0, model, interference_dbm=-90.0)
        assert interfered < clean

    def test_equal_noise_and_interference_costs_3db(self):
        model = LogDistancePathLoss(exponent=3.0)
        clean = mean_sinr_db(20.0, 10.0, model, noise_dbm=-100.0)
        interfered = mean_sinr_db(20.0, 10.0, model, noise_dbm=-100.0,
                                  interference_dbm=-100.0)
        assert clean - interfered == pytest.approx(10.0 * math.log10(2.0))


class TestConversions:
    def test_round_trip(self):
        assert db_to_linear(10.0 * math.log10(42.0)) == pytest.approx(42.0)

    def test_known_values(self):
        assert db_to_linear(10.0) == pytest.approx(10.0)
        assert db_to_linear(0.0) == pytest.approx(1.0)
        assert db_to_linear(20.0) == pytest.approx(100.0)
