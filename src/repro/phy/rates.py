"""OFDM slot-rate model (Section IV-A).

The paper adopts OFDM across the licensed channels: an FBS transmitting to
user ``j`` for a fraction ``rho`` of the slot on ``G_t`` (expected)
available channels of bandwidth ``B1`` delivers ``rho * G_t * B1`` Mbps of
video data; the MBS delivers ``rho * B0`` on the single common channel.
The constants ``R_{0,j} = beta_j B0 / T`` and ``R_{1,j} = beta_j B1 / T``
in problem (10) fold the video's rate-distortion slope ``beta_j`` and the
GOP deadline ``T`` into per-slot *PSNR increments*; those live in
:mod:`repro.video.rd_model`.  Here we keep the raw throughput arithmetic.
"""

from __future__ import annotations

from repro.utils.errors import ConfigurationError
from repro.utils.validation import check_in_range, check_positive


def slot_rate_mbps(time_share: float, bandwidth_mbps: float,
                   expected_channels: float = 1.0) -> float:
    """Throughput of one link in one slot.

    Parameters
    ----------
    time_share:
        Fraction ``rho`` of the slot allocated to the link, in ``[0, 1]``.
    bandwidth_mbps:
        Per-channel capacity (``B0`` for the MBS link, ``B1`` for FBS links).
    expected_channels:
        ``G_t`` for FBS links (OFDM across all accessed channels); 1 for
        the single common channel.
    """
    time_share = check_in_range(time_share, "time_share", 0.0, 1.0)
    bandwidth_mbps = check_positive(bandwidth_mbps, "bandwidth_mbps", allow_zero=True)
    if expected_channels < 0.0:
        raise ConfigurationError(
            f"expected_channels must be non-negative, got {expected_channels}")
    return time_share * bandwidth_mbps * float(expected_channels)
