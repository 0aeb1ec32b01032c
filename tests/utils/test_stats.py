"""Tests for repro.utils.stats."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.utils.stats import (
    ConfidenceInterval,
    jain_fairness_index,
    mean_confidence_interval,
    student_t_quantile,
)


def _modules_after(statement):
    """The top-level and dotted module names a fresh interpreter holds
    after running ``statement`` with this checkout's ``repro``."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import repro

    src = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    code = f"import sys; {statement}; print(' '.join(sys.modules))"
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True, env=env).stdout
    return set(out.split())


class TestMeanConfidenceInterval:
    def test_single_sample_zero_width(self):
        ci = mean_confidence_interval([5.0])
        assert ci.mean == 5.0
        assert ci.half_width == 0.0
        assert ci.n_samples == 1

    def test_constant_samples_zero_width(self):
        ci = mean_confidence_interval([2.0] * 10)
        assert ci.half_width == pytest.approx(0.0)

    def test_known_t_interval(self):
        # n=4, std=1: half-width = t_{0.975,3} * 1/2 = 3.182 * 0.5
        samples = [0.0, 0.0, 2.0, 2.0]  # mean 1, sd = 1.1547
        ci = mean_confidence_interval(samples)
        sem = np.std(samples, ddof=1) / 2.0
        assert ci.mean == pytest.approx(1.0)
        assert ci.half_width == pytest.approx(3.18245 * sem, rel=1e-4)

    def test_coverage_monte_carlo(self):
        # ~95% of intervals from a normal sample should contain the mean.
        rng = np.random.default_rng(0)
        hits = sum(
            mean_confidence_interval(rng.normal(3.0, 1.0, size=10)).contains(3.0)
            for _ in range(400)
        )
        assert 0.90 <= hits / 400 <= 0.99

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mean_confidence_interval([])

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            mean_confidence_interval([1.0, float("nan")])

    @pytest.mark.parametrize("confidence", [0.90, 0.95, 0.99])
    def test_quantile_is_scipy_stats_t_ppf_bit_for_bit(self, confidence):
        # The interval takes its Student-t quantile from scipy.special;
        # it must be scipy.stats' t.ppf exactly, so results keep their
        # bytes for every campaign size.
        from scipy import special
        from scipy import stats as scipy_stats

        df = np.arange(1, 1999)
        expected = scipy_stats.t.ppf(0.5 + confidence / 2.0, df=df)
        got = special.stdtrit(df, 0.5 + confidence / 2.0)
        assert got.tobytes() == expected.tobytes()

    def test_importing_the_cli_leaves_scipy_stats_unloaded(self):
        # scipy.stats costs more than a second of start-up.
        assert "scipy.stats" not in _modules_after("import repro.cli")

    @pytest.mark.parametrize("statement", ["import repro.cli",
                                           "import repro.serve.api"])
    def test_cold_start_loads_neither_networkx_nor_scipy(self, statement):
        # networkx and scipy.special together are most of the start-up
        # of every CLI run and job child; the program needs neither to
        # start (the interference graph and its colouring are in-repo,
        # the default Student-t quantile is a committed table).
        loaded = _modules_after(statement)
        assert {"networkx", "scipy"} & loaded == set()

    def test_t_table_is_scipy_stdtrit_bit_for_bit(self):
        from scipy import special

        from repro.utils import t_table

        assert t_table.P == 0.5 + 0.95 / 2.0
        assert len(t_table.T_QUANTILES) == 1998
        for df, entry in enumerate(t_table.T_QUANTILES, start=1):
            assert entry == float(special.stdtrit(df, t_table.P)).hex(), df

    @pytest.mark.parametrize("df", [1, 4, 1998, 1999, 5000])
    def test_quantile_is_stdtrit_inside_and_outside_the_table(self, df):
        from scipy import special

        assert student_t_quantile(df) == float(special.stdtrit(df, 0.975))

    def test_interval_endpoints(self):
        ci = ConfidenceInterval(mean=10.0, half_width=2.0, confidence=0.95, n_samples=5)
        assert ci.low == 8.0
        assert ci.high == 12.0
        assert ci.contains(9.0)
        assert not ci.contains(12.5)
        assert "95% CI" in str(ci)


class TestJainFairness:
    def test_equal_allocation_is_one(self):
        assert jain_fairness_index([3.0, 3.0, 3.0]) == pytest.approx(1.0)

    def test_single_winner_is_one_over_n(self):
        assert jain_fairness_index([5.0, 0.0, 0.0, 0.0]) == pytest.approx(0.25)

    def test_all_zero_defined_as_fair(self):
        assert jain_fairness_index([0.0, 0.0]) == 1.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            jain_fairness_index([1.0, -1.0])

    @given(st.lists(st.floats(0.01, 100.0), min_size=1, max_size=20))
    def test_property_bounds(self, values):
        index = jain_fairness_index(values)
        assert 1.0 / len(values) - 1e-12 <= index <= 1.0 + 1e-12
