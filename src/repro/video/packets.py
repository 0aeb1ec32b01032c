"""NAL-unit packetisation of MGS streams.

MGS scalability is *NAL-unit granular* (Section I): a GOP's enhancement
data is a sequence of discrete NAL units of decreasing significance, and
receivers decode any prefix of that sequence.  The paper's scheduler sends
packets in decreasing significance order with retransmissions, discarding
overdue ones.

The allocation algorithms operate on the fluid rate model of eq. (9).
With ``nal_quantized`` the engine accounts for the discrete NAL
boundary: the realised quality of a GOP is the PSNR of the largest fully
received NAL prefix, eq. (9) rounded down to a packet boundary, whose
per-packet quantum is the ``psnr_gain_db`` of :func:`packetize_gop`'s
units.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.utils.errors import ConfigurationError
from repro.video.sequences import VideoSequence


@dataclass(frozen=True)
class NalPacket:
    """One MGS NAL unit of a GOP's enhancement data.

    Attributes
    ----------
    index:
        Significance rank within the GOP (0 = most significant).
    size_bits:
        Payload size in bits.
    psnr_gain_db:
        Quality added when this unit (and all more significant ones) is
        received -- the linear model's slope times the unit's rate share.
    """

    index: int
    size_bits: int
    psnr_gain_db: float

    def __post_init__(self) -> None:
        if self.index < 0:
            raise ConfigurationError(f"index must be non-negative, got {self.index}")
        if self.size_bits <= 0:
            raise ConfigurationError(f"size_bits must be positive, got {self.size_bits}")
        if self.psnr_gain_db < 0:
            raise ConfigurationError(
                f"psnr_gain_db must be non-negative, got {self.psnr_gain_db}")


def packetize_gop(sequence: VideoSequence, *, enhancement_rate_mbps: float,
                  packet_size_bits: int = 8000) -> List[NalPacket]:
    """Split one GOP's enhancement layer into NAL packets.

    Parameters
    ----------
    sequence:
        The encoded sequence (provides GOP duration and the R-D slope).
    enhancement_rate_mbps:
        Encoding rate of the MGS enhancement layer.
    packet_size_bits:
        Nominal NAL-unit size; the last unit absorbs the remainder.

    Returns
    -------
    list of NalPacket
        Units in decreasing significance order.  Under the linear model
        every received bit is worth the same quality, so each unit's gain
        is proportional to its size.
    """
    if enhancement_rate_mbps < 0:
        raise ConfigurationError(
            f"enhancement_rate_mbps must be non-negative, got {enhancement_rate_mbps}")
    if packet_size_bits <= 0:
        raise ConfigurationError(
            f"packet_size_bits must be positive, got {packet_size_bits}")
    total_bits = int(round(enhancement_rate_mbps * 1e6 * sequence.gop_duration_s))
    if total_bits == 0:
        return []
    db_per_bit = (sequence.rd.beta_db_per_mbps
                  / (1e6 * sequence.gop_duration_s))
    packets: List[NalPacket] = []
    offset = 0
    index = 0
    while offset < total_bits:
        size = min(packet_size_bits, total_bits - offset)
        packets.append(NalPacket(
            index=index,
            size_bits=size,
            psnr_gain_db=db_per_bit * size,
        ))
        offset += size
        index += 1
    return packets
