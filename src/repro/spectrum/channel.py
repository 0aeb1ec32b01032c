"""Channel and spectrum-band definitions.

The paper's spectrum (Section III-A) consists of ``M + 1`` synchronously
slotted channels: channel 0 is the common unlicensed channel (capacity
``B0`` Mbps, exclusively used by the CR network for the MBS downlink and
control traffic) and channels 1..M are licensed channels (capacity ``B1``
Mbps each) owned by the primary network.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.spectrum.markov import BUSY, IDLE, OccupancyChain
from repro.utils.errors import ConfigurationError
from repro.utils.rng import RandomState, spawn_streams
from repro.utils.validation import check_positive, check_probability


@dataclass(frozen=True)
class ChannelState:
    """Snapshot of the licensed spectrum in one time slot.

    Attributes
    ----------
    slot:
        Time-slot index the snapshot belongs to.
    occupancy:
        Length-``M`` int array; ``occupancy[m] == 1`` iff licensed channel
        ``m`` is busy with a primary transmission (the paper's ``S_m(t)``).
    """

    slot: int
    occupancy: np.ndarray

    @property
    def idle_channels(self) -> np.ndarray:
        """Indices of channels truly idle in this slot."""
        return np.flatnonzero(self.occupancy == IDLE)

    @property
    def busy_channels(self) -> np.ndarray:
        """Indices of channels truly busy in this slot."""
        return np.flatnonzero(self.occupancy == BUSY)

    def is_idle(self, channel: int) -> bool:
        """Whether licensed channel ``channel`` is truly idle."""
        return bool(self.occupancy[channel] == IDLE)


class LicensedChannel:
    """One licensed channel: an occupancy chain plus its parameters.

    Parameters
    ----------
    index:
        Channel index in 1..M space; stored 0-based within :class:`Spectrum`
        arrays but kept here for reporting.
    p01, p10:
        Markov transition probabilities (Section III-A).
    bandwidth_mbps:
        Channel capacity ``B1`` in Mbps.
    max_collision_probability:
        The primary-protection cap ``gamma_m`` of eq. (6).
    rng:
        Randomness source for the occupancy chain.
    """

    def __init__(self, index: int, p01: float, p10: float, bandwidth_mbps: float,
                 max_collision_probability: float, *, rng: RandomState = None) -> None:
        if index < 0:
            raise ConfigurationError(f"index must be non-negative, got {index}")
        self.index = int(index)
        self.bandwidth_mbps = check_positive(bandwidth_mbps, "bandwidth_mbps")
        self.max_collision_probability = check_probability(
            max_collision_probability, "max_collision_probability")
        self.chain = OccupancyChain(p01, p10, rng=rng)

    @property
    def utilization(self) -> float:
        """Stationary primary-user utilisation eta_m (eq. 1)."""
        return self.chain.utilization

    @property
    def state(self) -> int:
        """Current occupancy state (0 idle / 1 busy)."""
        return self.chain.state

    def __repr__(self) -> str:
        return (f"LicensedChannel(index={self.index}, eta={self.utilization:.3f}, "
                f"B1={self.bandwidth_mbps} Mbps, gamma={self.max_collision_probability})")


class Spectrum:
    """The full spectrum: one common channel plus ``M`` licensed channels.

    This is the authoritative source of *true* channel occupancy during a
    simulation; sensing (Section III-B) only ever sees noisy observations
    of it.

    Parameters
    ----------
    n_licensed:
        Number of licensed channels ``M``.
    p01, p10:
        Markov transition probabilities, either scalars (applied to every
        channel, as in the paper's evaluation) or length-``M`` sequences.
    licensed_bandwidth_mbps:
        Per-channel capacity ``B1``.
    common_bandwidth_mbps:
        Common-channel capacity ``B0``.
    max_collision_probability:
        Collision cap ``gamma`` (scalar or per-channel).
    rng:
        Root randomness; each channel gets an independent child stream.
    """

    def __init__(self, n_licensed: int, p01, p10, *, licensed_bandwidth_mbps: float = 0.3,
                 common_bandwidth_mbps: float = 0.3, max_collision_probability=0.2,
                 rng: RandomState = None) -> None:
        if n_licensed <= 0:
            raise ConfigurationError(f"n_licensed must be positive, got {n_licensed}")
        self.n_licensed = int(n_licensed)
        self.common_bandwidth_mbps = check_positive(
            common_bandwidth_mbps, "common_bandwidth_mbps")
        p01s = _broadcast_param(p01, self.n_licensed, "p01")
        p10s = _broadcast_param(p10, self.n_licensed, "p10")
        gammas = _broadcast_param(max_collision_probability, self.n_licensed,
                                  "max_collision_probability")
        streams = spawn_streams(rng, [f"channel-{m}" for m in range(self.n_licensed)])
        self.channels: List[LicensedChannel] = [
            LicensedChannel(m, p01s[m], p10s[m], licensed_bandwidth_mbps, gammas[m],
                            rng=streams[f"channel-{m}"])
            for m in range(self.n_licensed)
        ]
        self._slot = 0

    @property
    def slot(self) -> int:
        """Index of the most recently generated slot."""
        return self._slot

    @property
    def utilizations(self) -> np.ndarray:
        """Per-channel stationary utilisations eta_m."""
        return np.array([ch.utilization for ch in self.channels])

    @property
    def licensed_bandwidth_mbps(self) -> float:
        """Capacity ``B1`` of each licensed channel (identical, per paper)."""
        return self.channels[0].bandwidth_mbps

    @property
    def collision_caps(self) -> np.ndarray:
        """Per-channel maximum allowable collision probabilities gamma_m."""
        return np.array([ch.max_collision_probability for ch in self.channels])

    def occupancy(self) -> np.ndarray:
        """Current true occupancy vector ``S(t)`` without advancing time."""
        return np.array([ch.state for ch in self.channels], dtype=np.int8)

    def advance(self) -> ChannelState:
        """Advance every channel one slot and return the new snapshot."""
        for channel in self.channels:
            channel.chain.step()
        self._slot += 1
        return ChannelState(slot=self._slot, occupancy=self.occupancy())

    def current_state(self) -> ChannelState:
        """Snapshot of the current slot without advancing time."""
        return ChannelState(slot=self._slot, occupancy=self.occupancy())

    def __len__(self) -> int:
        return self.n_licensed

    def __repr__(self) -> str:
        return (f"Spectrum(M={self.n_licensed}, B1={self.licensed_bandwidth_mbps} Mbps, "
                f"B0={self.common_bandwidth_mbps} Mbps, slot={self._slot})")


def _broadcast_param(value, size: int, name: str) -> np.ndarray:
    """Broadcast a scalar-or-sequence parameter to a length-``size`` array."""
    if np.isscalar(value):
        return np.full(size, float(value))
    arr = np.asarray(value, dtype=float)
    if arr.shape != (size,):
        raise ConfigurationError(
            f"{name} must be a scalar or length-{size} sequence, got shape {arr.shape}")
    return arr
