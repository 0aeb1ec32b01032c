"""Tests for the per-GOP complexity traces (extension)."""

import math

import numpy as np
import pytest

from repro.utils.errors import ConfigurationError
from repro.video.traces import GopComplexityTrace


class TestTraceStatistics:
    def test_zero_sigma_is_constant_one(self):
        trace = GopComplexityTrace(sigma=0.0, rng=0)
        assert trace.complexity == 1.0
        assert trace.sample(20) == [1.0] * 20

    def test_median_near_one(self):
        trace = GopComplexityTrace(sigma=0.4, phi=0.5, rng=1)
        values = trace.sample(20000)
        assert float(np.median(values)) == pytest.approx(1.0, abs=0.05)

    def test_log_std_matches_sigma(self):
        sigma = 0.35
        trace = GopComplexityTrace(sigma=sigma, phi=0.6, rng=2)
        logs = np.log(trace.sample(30000))
        # The AR(1) is parameterised to be stationary with std sigma.
        assert float(logs.std()) == pytest.approx(sigma, abs=0.02)

    def test_autocorrelation_matches_phi(self):
        phi = 0.8
        trace = GopComplexityTrace(sigma=0.4, phi=phi, rng=3)
        logs = np.log(trace.sample(30000))
        assert np.corrcoef(logs[:-1], logs[1:])[0, 1] == pytest.approx(phi, abs=0.03)

    def test_deterministic_with_seed(self):
        a = GopComplexityTrace(sigma=0.3, rng=7).sample(10)
        b = GopComplexityTrace(sigma=0.3, rng=7).sample(10)
        assert a == b

    def test_iterator_protocol(self):
        trace = GopComplexityTrace(sigma=0.2, rng=4)
        values = [value for value, _ in zip(trace, range(5))]
        assert len(values) == 5
        assert all(value > 0 for value in values)


class TestValidation:
    def test_negative_sigma_rejected(self):
        with pytest.raises(ConfigurationError):
            GopComplexityTrace(sigma=-0.1)

    def test_phi_one_rejected(self):
        with pytest.raises(ConfigurationError):
            GopComplexityTrace(phi=1.0)

    def test_negative_sample_count(self):
        with pytest.raises(ConfigurationError):
            GopComplexityTrace(rng=0).sample(-1)


class TestEngineIntegration:
    def test_paper_mode_unchanged(self, single_config):
        """sigma = 0 must reproduce the paper's constant R-D model."""
        from repro.sim.engine import SimulationEngine
        baseline = SimulationEngine(single_config).run()
        explicit = SimulationEngine(
            single_config.replace(rd_variability=0.0)).run()
        assert baseline.per_user_psnr == explicit.per_user_psnr

    def test_variability_changes_slopes_per_gop(self, single_config):
        from repro.sim.engine import SimulationEngine
        config = single_config.replace(rd_variability=0.5)
        engine = SimulationEngine(config, record_slots=True)
        first = engine.step()
        slopes_gop1 = {u.user_id: u.r_fbs for u in first.problem.users}
        for _ in range(config.deadline_slots):
            record = engine.step()
        slopes_gop2 = {u.user_id: u.r_fbs for u in record.problem.users
                       if u.r_fbs > 0}
        changed = [uid for uid, slope in slopes_gop2.items()
                   if abs(slope - slopes_gop1[uid]) > 1e-12]
        assert changed

    def test_ceiling_invariant_under_complexity(self, single_config):
        """Complexity rescales difficulty, not the achievable quality."""
        from repro.sim.engine import SimulationEngine
        from repro.video.sequences import get_sequence
        config = single_config.replace(rd_variability=0.8)
        engine = SimulationEngine(config)
        for _ in range(config.n_slots):
            engine.step()
        for user in config.topology.users:
            ceiling = get_sequence(user.sequence_name).rd.max_psnr_db
            assert engine.clocks[user.user_id].psnr_db <= ceiling + 1e-9

    def test_invalid_config(self, single_config):
        with pytest.raises(ConfigurationError):
            single_config.replace(rd_variability=-0.5)
        with pytest.raises(ConfigurationError):
            single_config.replace(rd_trace_phi=1.0)
