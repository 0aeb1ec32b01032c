"""Packet-loss probability from the SINR distribution (eq. 8).

Thin functional wrappers over a fading model's CDF, for call sites that
need one link's scalar probabilities.
"""

from __future__ import annotations

from repro.utils.validation import check_positive


def packet_loss_probability(fading, threshold: float) -> float:
    """``P^F = F_X(H)`` -- probability the slot's SINR falls below ``H``.

    Parameters
    ----------
    fading:
        Any fading model exposing ``cdf`` (e.g. :class:`RayleighFading`).
    threshold:
        Decoding SINR threshold ``H`` (linear scale).
    """
    threshold = check_positive(threshold, "threshold", allow_zero=True)
    loss = float(fading.cdf(threshold))
    if not 0.0 <= loss <= 1.0:
        raise ValueError(f"fading model returned invalid CDF value {loss}")
    return loss


def success_probability(fading, threshold: float) -> float:
    """``bar P^F = 1 - F_X(H)`` -- probability the slot decodes."""
    return 1.0 - packet_loss_probability(fading, threshold)
