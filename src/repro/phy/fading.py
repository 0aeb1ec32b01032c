"""Rayleigh block fading with its closed-form SINR CDF.

Section III-D assumes the received SINR ``X`` from base station ``i`` at
user ``j`` has density ``f_X^{i,j}`` and that packets decode iff
``X > H``; the loss probability is the CDF at the threshold,
``P^F_{i,j} = F_X^{i,j}(H)`` (eq. 8).  Every link of the simulator is
Rayleigh: the SINR is exponential with the mean set by path loss, so
``F(H) = 1 - exp(-H / mean)``.
"""

from __future__ import annotations

import math

from repro.utils.rng import RandomState, as_generator
from repro.utils.validation import check_positive


class RayleighFading:
    """Rayleigh block fading: SINR ~ Exponential(mean = ``mean_sinr``).

    Parameters
    ----------
    mean_sinr:
        Mean received SINR (linear scale, not dB).
    """

    def __init__(self, mean_sinr: float) -> None:
        self.mean_sinr = check_positive(mean_sinr, "mean_sinr")

    def cdf(self, threshold: float) -> float:
        """Closed-form CDF ``1 - exp(-H / mean)`` at ``threshold`` H."""
        threshold = check_positive(threshold, "threshold", allow_zero=True)
        return 1.0 - math.exp(-threshold / self.mean_sinr)

    def sample(self, rng: RandomState, size=None):
        """Sample instantaneous SINR values (one per slot, block fading)."""
        generator = as_generator(rng)
        return generator.exponential(self.mean_sinr, size=size)

    def __repr__(self) -> str:
        return f"RayleighFading(mean_sinr={self.mean_sinr:.4g})"
