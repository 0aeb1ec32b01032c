"""Block-fading distributions with closed-form SINR CDFs.

Section III-D assumes the received SINR ``X`` from base station ``i`` at
user ``j`` has density ``f_X^{i,j}`` and that packets decode iff
``X > H``; the loss probability is the CDF at the threshold,
``P^F_{i,j} = F_X^{i,j}(H)`` (eq. 8).  We provide the two standard
block-fading families used throughout the CR literature the paper cites:

* :class:`RayleighFading` -- SINR is exponential with the mean set by path
  loss; ``F(H) = 1 - exp(-H / mean)``.
* :class:`NakagamiFading` -- SINR is Gamma-distributed; generalises
  Rayleigh (``m = 1``) and approximates Rician for ``m > 1``.
"""

from __future__ import annotations

import math
from typing import Protocol

import numpy as np

from repro.utils.errors import ConfigurationError
from repro.utils.rng import RandomState, as_generator, batched_exponential
from repro.utils.validation import check_positive


class FadingModel(Protocol):
    """Interface every fading family implements."""

    def cdf(self, threshold: float) -> float:
        """``Pr{X <= threshold}`` -- the packet-loss probability of eq. (8)."""
        ...

    def sample(self, rng, size=None):
        """Draw SINR realisations."""
        ...


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


class NakagamiFading:
    """Nakagami-m block fading: SINR ~ Gamma(m, mean/m).

    ``m = 1`` reduces exactly to :class:`RayleighFading`; larger ``m``
    models less severe fading (line-of-sight femtocell links).

    Parameters
    ----------
    mean_sinr:
        Mean received SINR (linear).
    m:
        Nakagami shape parameter, ``m >= 0.5``.
    """

    def __init__(self, mean_sinr: float, m: float = 1.0) -> None:
        self.mean_sinr = check_positive(mean_sinr, "mean_sinr")
        if m < 0.5:
            raise ConfigurationError(f"Nakagami shape m must be >= 0.5, got {m}")
        self.m = float(m)

    def cdf(self, threshold: float) -> float:
        """Regularised lower incomplete gamma ``P(m, m H / mean)``."""
        threshold = check_positive(threshold, "threshold", allow_zero=True)
        from scipy.special import gammainc

        return float(gammainc(self.m, self.m * threshold / self.mean_sinr))

    def sample(self, rng: RandomState, size=None):
        """Sample instantaneous SINR values."""
        generator = as_generator(rng)
        return generator.gamma(self.m, self.mean_sinr / self.m, size=size)

    def __repr__(self) -> str:
        return f"NakagamiFading(mean_sinr={self.mean_sinr:.4g}, m={self.m})"


def draw_rayleigh_margins(rng: RandomState, mean_margins) -> np.ndarray:
    """Realise many links' block-fading decoding margins in one call.

    Under Rayleigh fading the decoding margin ``X / H`` of a link with
    mean margin ``mu`` is exponential with mean ``mu``; a link decodes
    iff its draw exceeds 1 (exactly the ``bar P^F = exp(-1/mu)``
    probability of eq. (8)).  This draws one margin per entry of
    ``mean_margins`` through
    :func:`~repro.utils.rng.batched_exponential`, so the values -- and
    the RNG state afterwards -- are bit-identical to drawing each link's
    margin with a scalar ``rng.exponential(mu)`` call in the same order.
    """
    margins = np.asarray(mean_margins, dtype=float)
    if margins.size and np.any(margins <= 0.0):
        raise ConfigurationError(
            f"mean margins must be positive, got min {margins.min()!r}")
    return batched_exponential(as_generator(rng), margins)


def decode_indicators(margins, threshold: float = 1.0) -> np.ndarray:
    """Vectorized delivery indicators ``xi = 1{margin > threshold}``.

    The batched counterpart of :meth:`BlockFadingLink.realize_slot`'s
    comparison: with block fading one comparison per link per slot
    realises every packet's fate on that link.
    """
    threshold = check_positive(threshold, "threshold", allow_zero=True)
    return (np.asarray(margins, dtype=float) > threshold).astype(np.int8)


class BlockFadingLink:
    """A base-station -> user link under block fading.

    Holds the fading model and decoding threshold, exposes the per-slot
    loss probability ``P^F`` (constant within a slot, Section IV-A), and
    realises the Bernoulli packet-delivery indicator ``xi`` used by the
    state recursion of problem (10).

    Parameters
    ----------
    fading:
        A fading model (Rayleigh/Nakagami or anything with ``cdf``/``sample``).
    threshold:
        Decoding SINR threshold ``H`` (linear).
    rng:
        Randomness for per-slot realisations.
    """

    def __init__(self, fading, threshold: float, *, rng: RandomState = None) -> None:
        self.fading = fading
        self.threshold = check_positive(threshold, "threshold")
        self._rng = as_generator(rng)

    @property
    def loss_probability(self) -> float:
        """``P^F = F_X(H)`` -- the block loss probability (eq. 8)."""
        return self.fading.cdf(self.threshold)

    @property
    def success_probability(self) -> float:
        """``1 - P^F`` -- the paper's ``bar P^F``."""
        return 1.0 - self.loss_probability

    def realize_slot(self) -> int:
        """Draw the slot's delivery indicator ``xi`` (1 = success).

        Because fading is constant over the slot, either every packet sent
        on the link in this slot decodes or none does; a single Bernoulli
        draw per slot is exact.
        """
        sinr = float(self.fading.sample(self._rng))
        return int(sinr > self.threshold)

    def __repr__(self) -> str:
        return (f"BlockFadingLink(fading={self.fading!r}, H={self.threshold:.4g}, "
                f"P_F={self.loss_probability:.4f})")
