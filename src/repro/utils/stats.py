"""Statistics helpers used by the Monte-Carlo harness.

The paper reports each data point as the mean of 10 simulation runs with a
95% confidence interval (ICDCS'11, Section V).  This module provides the
matching estimators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.utils import t_table
from repro.utils.errors import ConfigurationError


@dataclass(frozen=True)
class ConfidenceInterval:
    """A mean estimate with a symmetric confidence interval.

    Attributes
    ----------
    mean:
        Sample mean.
    half_width:
        Half-width of the interval; the interval is ``mean +/- half_width``.
    confidence:
        Confidence level, e.g. ``0.95``.
    n_samples:
        Number of samples the estimate is based on.
    """

    mean: float
    half_width: float
    confidence: float
    n_samples: int

    @property
    def low(self) -> float:
        """Lower endpoint of the interval."""
        return self.mean - self.half_width

    @property
    def high(self) -> float:
        """Upper endpoint of the interval."""
        return self.mean + self.half_width

    def contains(self, value: float) -> bool:
        """Whether ``value`` lies inside the interval (inclusive)."""
        return self.low <= value <= self.high

    def __str__(self) -> str:
        pct = int(round(self.confidence * 100))
        return f"{self.mean:.3f} +/- {self.half_width:.3f} ({pct}% CI, n={self.n_samples})"


#: Confidence level of every interval (Section V reports 95% CIs).
CONFIDENCE = 0.95


def mean_confidence_interval(samples: Sequence[float]) -> ConfidenceInterval:
    """Student-t 95% confidence interval for the mean of ``samples``.

    A single sample yields a zero-width interval (there is no dispersion
    information), matching the behaviour most plotting pipelines expect.
    """
    arr = np.asarray(list(samples), dtype=float)
    if arr.size == 0:
        raise ValueError("samples must be non-empty")
    if not np.all(np.isfinite(arr)):
        raise ValueError("samples must be finite")
    mean = float(arr.mean())
    n = int(arr.size)
    if n == 1:
        return ConfidenceInterval(mean=mean, half_width=0.0, confidence=CONFIDENCE, n_samples=1)
    sem = float(arr.std(ddof=1)) / math.sqrt(n)
    t_crit = student_t_quantile(n - 1)
    return ConfidenceInterval(mean=mean, half_width=t_crit * sem, confidence=CONFIDENCE, n_samples=n)


def student_t_quantile(df: int) -> float:
    """The Student-t quantile ``stdtrit(df, 0.975)`` of a 95% interval, bit for bit.

    For ``df`` up to 1998 it comes from the committed table of
    :mod:`repro.utils.t_table`, so no special-function library is
    imported.  A larger ``df`` (a campaign of more than 1999 runs)
    imports scipy, an optional dependency (the ``dev`` extra);
    :func:`check_t_quantile` lets a caller find out before any work.
    """
    if 1 <= df <= len(t_table.T_QUANTILES):
        return float.fromhex(t_table.T_QUANTILES[df - 1])
    return float(_stdtrit(df)(df, t_table.P))


def check_t_quantile(df: int) -> None:
    """Raise ``ConfigurationError`` if :func:`student_t_quantile` cannot
    answer ``df`` here (beyond the table, without scipy)."""
    if df > len(t_table.T_QUANTILES):
        _stdtrit(df)


def _stdtrit(df: int):
    """scipy's ``stdtrit``, which only the quantiles beyond the table need."""
    try:
        from scipy import special
    except ImportError:
        raise ConfigurationError(
            f"{df + 1} samples need the Student-t quantile for {df} "
            f"degrees of freedom, beyond the committed table "
            f"({len(t_table.T_QUANTILES)}); it comes from scipy, which is "
            f"not installed (pip install 'repro[dev]', or use at most "
            f"{len(t_table.T_QUANTILES) + 1} runs)") from None
    return special.stdtrit


def jain_fairness_index(values: Sequence[float]) -> float:
    """Jain's fairness index of non-negative allocations.

    Returns 1.0 for perfectly equal allocations and ``1/n`` when a single
    user receives everything.  Used to quantify the paper's observation
    that the proposed scheme balances quality across users (Fig. 3).
    """
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        raise ValueError("values must be non-empty")
    if np.any(arr < 0):
        raise ValueError("values must be non-negative")
    total = arr.sum()
    if total == 0.0:
        return 1.0
    return float(total**2 / (arr.size * np.square(arr).sum()))
