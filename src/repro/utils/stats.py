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


def mean_confidence_interval(samples: Sequence[float], confidence: float = 0.95) -> ConfidenceInterval:
    """Student-t confidence interval for the mean of ``samples``.

    A single sample yields a zero-width interval (there is no dispersion
    information), matching the behaviour most plotting pipelines expect.
    """
    arr = np.asarray(list(samples), dtype=float)
    if arr.size == 0:
        raise ValueError("samples must be non-empty")
    if not np.all(np.isfinite(arr)):
        raise ValueError("samples must be finite")
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    mean = float(arr.mean())
    n = int(arr.size)
    if n == 1:
        return ConfidenceInterval(mean=mean, half_width=0.0, confidence=confidence, n_samples=1)
    sem = float(arr.std(ddof=1)) / math.sqrt(n)
    t_crit = student_t_quantile(n - 1, 0.5 + confidence / 2.0)
    return ConfidenceInterval(mean=mean, half_width=t_crit * sem, confidence=confidence, n_samples=n)


def student_t_quantile(df: int, p: float) -> float:
    """The Student-t quantile ``stdtrit(df, p)``, bit for bit.

    The 95% level for ``df`` up to 1998 comes from the committed table
    of :mod:`repro.utils.t_table`, so the default interval imports no
    special-function library; any other level or ``df`` imports it.
    """
    if p == t_table.P and 1 <= df <= len(t_table.T_QUANTILES):
        return float.fromhex(t_table.T_QUANTILES[df - 1])
    from scipy import special

    return float(special.stdtrit(df, p))


class RunningMean:
    """Numerically stable streaming mean/variance (Welford's algorithm).

    Useful when a simulation produces too many samples to keep in memory,
    e.g. per-slot collision indicators across long horizons.
    """

    def __init__(self) -> None:
        self._count = 0
        self._mean = 0.0
        self._m2 = 0.0

    def update(self, value: float) -> None:
        """Fold one observation into the running statistics."""
        value = float(value)
        if not math.isfinite(value):
            raise ValueError(f"value must be finite, got {value}")
        self._count += 1
        delta = value - self._mean
        self._mean += delta / self._count
        self._m2 += delta * (value - self._mean)

    def update_many(self, values: Sequence[float]) -> None:
        """Fold a batch of observations into the running statistics."""
        for value in values:
            self.update(value)

    @property
    def count(self) -> int:
        """Number of observations folded in so far."""
        return self._count

    @property
    def mean(self) -> float:
        """Current sample mean (0.0 when empty)."""
        return self._mean

    @property
    def variance(self) -> float:
        """Unbiased sample variance (0.0 with fewer than two samples)."""
        if self._count < 2:
            return 0.0
        return self._m2 / (self._count - 1)

    @property
    def std(self) -> float:
        """Unbiased sample standard deviation."""
        return math.sqrt(self.variance)


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
