"""Sensor-to-channel assignment for the sensing phase.

Each CR user has a single transceiver and can sense exactly one licensed
channel per slot (Section III-B); each FBS has ``M`` antennas and can sense
every channel.  Results are then shared over the common channel and fused.
This module decides *which* channel each single-transceiver user senses.

The paper does not prescribe a specific assignment rule, only that every
channel ends up with some sensing results (FBS antennas guarantee at least
one observation per channel).  We use a deterministic round-robin
rule, which spreads user observations evenly and makes simulations
reproducible.
"""

from __future__ import annotations

from typing import Dict, Sequence

from repro.utils.errors import ConfigurationError


def assign_sensors_round_robin(user_ids: Sequence[int], n_channels: int, *,
                               offset: int = 0) -> Dict[int, int]:
    """Assign each user one channel, cycling through channels in order.

    Parameters
    ----------
    user_ids:
        Identifiers of single-transceiver CR users.
    n_channels:
        Number of licensed channels ``M``.
    offset:
        Rotation applied before assignment; passing the slot index makes
        every user visit every channel over ``M`` slots.

    Returns
    -------
    dict
        ``{user_id: channel_index}``.
    """
    if n_channels <= 0:
        raise ConfigurationError(f"n_channels must be positive, got {n_channels}")
    if offset < 0:
        raise ConfigurationError(f"offset must be non-negative, got {offset}")
    return {
        user_id: (position + offset) % n_channels
        for position, user_id in enumerate(user_ids)
    }
