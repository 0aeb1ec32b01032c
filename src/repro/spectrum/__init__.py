"""Primary-network spectrum substrate.

Implements the paper's spectrum model (Section III-A): ``M`` licensed
channels whose primary-user occupancy evolves as independent two-state
discrete-time Markov chains, plus one common unlicensed channel reserved
for the CR network.
"""

from repro.spectrum.channel import ChannelState, LicensedChannel, Spectrum
from repro.spectrum.markov import OccupancyChain

__all__ = [
    "ChannelState",
    "LicensedChannel",
    "OccupancyChain",
    "Spectrum",
]
