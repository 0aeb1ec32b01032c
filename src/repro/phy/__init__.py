"""Physical-layer substrate.

The paper assumes independent block-fading links (Section III-D): the
fading gain is constant within a time slot and independent across slots,
and a packet is decoded iff the received SINR exceeds a threshold ``H``,
giving packet-loss probability ``P^F = F_X(H)`` (eq. 8).  This package
provides the Rayleigh model with its closed-form CDF, a log-distance
path-loss model to derive mean SINRs from geometry, and the OFDM
slot-rate model of Section IV-A.
"""

from repro.phy.fading import RayleighFading
from repro.phy.pathloss import LogDistancePathLoss, mean_sinr_db
from repro.phy.rates import slot_rate_mbps
from repro.phy.sinr import packet_loss_probability, success_probability

__all__ = [
    "LogDistancePathLoss",
    "RayleighFading",
    "mean_sinr_db",
    "packet_loss_probability",
    "slot_rate_mbps",
    "success_probability",
]
