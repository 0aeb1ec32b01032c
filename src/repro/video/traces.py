"""Synthetic per-GOP complexity traces (extension to the paper).

The paper fits one (alpha, beta) pair per sequence, i.e. every GOP of a
video is equally hard to encode.  Real encodes vary: high-motion GOPs
carry more enhancement bits per dB.  This module models that with a
stationary lognormal AR(1) *complexity* process ``c_g`` (mean 1):

    log c_g = phi * log c_{g-1} + sqrt(1 - phi^2) * sigma * eps_g

A GOP of complexity ``c`` keeps the sequence's quality ceiling but needs
``c`` times the rate to reach it -- its effective R-D slope is
``beta / c`` and its enhancement budget ``max_rate * c``.  The product
(ceiling quality gain) is invariant, so traces perturb the *difficulty*
of each GOP without changing what is achievable, which keeps experiment
series comparable across variability levels.

Enabled in the simulator via ``ScenarioConfig.rd_variability`` (the
sigma above; 0 disables the extension and reproduces the paper exactly).
"""

from __future__ import annotations

import math
from typing import Iterator, List

from repro.utils.errors import ConfigurationError
from repro.utils.rng import RandomState, as_generator
from repro.utils.validation import check_in_range, check_positive


class GopComplexityTrace:
    """Stationary lognormal AR(1) complexity process, mean-one by design.

    Parameters
    ----------
    sigma:
        Standard deviation of ``log c`` (0 = constant complexity 1).
    phi:
        AR(1) correlation of ``log c`` between consecutive GOPs; video
        content changes slowly, so adjacent GOPs are similar
        (default 0.8).
    rng:
        Randomness source.
    """

    def __init__(self, sigma: float = 0.3, phi: float = 0.8, *,
                 rng: RandomState = None) -> None:
        self.sigma = check_positive(sigma, "sigma", allow_zero=True)
        self.phi = check_in_range(phi, "phi", 0.0, 1.0 - 1e-12)
        self._rng = as_generator(rng)
        # Start from the stationary distribution of the AR(1) process so
        # the first GOP is statistically identical to all later ones.
        self._log_c = (self._rng.normal(0.0, self.sigma)
                       if self.sigma > 0.0 else 0.0)

    @property
    def complexity(self) -> float:
        """Complexity of the current GOP (lognormal, median 1)."""
        return math.exp(self._log_c)

    def advance(self) -> float:
        """Move to the next GOP and return its complexity."""
        if self.sigma > 0.0:
            innovation = self._rng.normal(0.0, self.sigma)
            self._log_c = (self.phi * self._log_c
                           + math.sqrt(1.0 - self.phi ** 2) * innovation)
        return self.complexity

    def sample(self, n_gops: int) -> List[float]:
        """The next ``n_gops`` complexities (advances the process)."""
        if n_gops < 0:
            raise ConfigurationError(f"n_gops must be non-negative, got {n_gops}")
        return [self.advance() for _ in range(n_gops)]

    def __iter__(self) -> Iterator[float]:
        while True:
            yield self.advance()
