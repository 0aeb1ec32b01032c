"""Library of MGS-encoded test sequences.

The paper streams three standard CIF (352x288) sequences, one per CR user
in the single-FBS scenario: *Bus*, *Mobile*, and *Harbor*, encoded with
the JVSM 9.13 H.264/SVC reference codec at GOP size 16 (Section V).

JVSM itself is not reproducible offline, but the optimisation consumes the
encoder output only through the linear rate-distortion model of eq. (9).
The constants below are representative of published MGS measurements for
these sequences (Wien et al., the paper's reference [5]): *Mobile* is the
hardest to encode (lowest base quality), *Bus* gains quality fastest with
rate, and *Harbor* sits in between.  Each encoding also has a finite MGS
enhancement rate (``max_rate_mbps``): a GOP carries only that many
enhancement bits, so a stream *saturates* once they are all delivered --
the physical mechanism that penalises winner-take-all scheduling.
Relative ordering -- which is all the reproduced figures depend on -- is
therefore preserved.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.obs.metrics import global_registry, metrics_enabled
from repro.utils.errors import ConfigurationError
from repro.video.rd_model import MgsRateDistortion


@dataclass(frozen=True)
class VideoSequence:
    """An MGS-encoded video sequence.

    Attributes
    ----------
    name:
        Sequence name (e.g. ``"bus"``).
    resolution:
        ``(width, height)`` in pixels.
    frame_rate:
        Frames per second.
    gop_size:
        Group-of-pictures size in frames (16 in the paper's evaluation).
    rd:
        The sequence's MGS rate-distortion curve.
    """

    name: str
    resolution: Tuple[int, int]
    frame_rate: float
    gop_size: int
    rd: MgsRateDistortion

    def __post_init__(self) -> None:
        if self.gop_size <= 0:
            raise ConfigurationError(f"gop_size must be positive, got {self.gop_size}")
        if self.frame_rate <= 0:
            raise ConfigurationError(f"frame_rate must be positive, got {self.frame_rate}")
        width, height = self.resolution
        if width <= 0 or height <= 0:
            raise ConfigurationError(f"resolution must be positive, got {self.resolution}")

    @property
    def gop_duration_s(self) -> float:
        """Wall-clock duration of one GOP."""
        return self.gop_size / self.frame_rate

    @property
    def base_psnr_db(self) -> float:
        """PSNR with only the base layer received (``alpha``)."""
        return self.rd.alpha_db


_CIF = (352, 288)

#: Representative MGS rate-distortion constants for the paper's three CIF
#: sequences (see module docstring for provenance).  alpha is the
#: base-layer Y-PSNR; beta the enhancement slope in dB/Mbps.
SEQUENCE_LIBRARY: Dict[str, VideoSequence] = {
    "bus": VideoSequence(
        name="bus", resolution=_CIF, frame_rate=30.0, gop_size=16,
        rd=MgsRateDistortion(alpha_db=29.0, beta_db_per_mbps=32.0, max_rate_mbps=0.42),
    ),
    "mobile": VideoSequence(
        name="mobile", resolution=_CIF, frame_rate=30.0, gop_size=16,
        rd=MgsRateDistortion(alpha_db=26.5, beta_db_per_mbps=28.0, max_rate_mbps=0.38),
    ),
    "harbor": VideoSequence(
        name="harbor", resolution=_CIF, frame_rate=30.0, gop_size=16,
        rd=MgsRateDistortion(alpha_db=28.0, beta_db_per_mbps=30.0, max_rate_mbps=0.40),
    ),
    # Additional CIF sequences commonly used in the SVC literature, for
    # larger scenarios (interfering FBSs stream three videos per cell).
    "foreman": VideoSequence(
        name="foreman", resolution=_CIF, frame_rate=30.0, gop_size=16,
        rd=MgsRateDistortion(alpha_db=30.5, beta_db_per_mbps=26.0, max_rate_mbps=0.46),
    ),
    "football": VideoSequence(
        name="football", resolution=_CIF, frame_rate=30.0, gop_size=16,
        rd=MgsRateDistortion(alpha_db=27.5, beta_db_per_mbps=29.0, max_rate_mbps=0.44),
    ),
    "crew": VideoSequence(
        name="crew", resolution=_CIF, frame_rate=30.0, gop_size=16,
        rd=MgsRateDistortion(alpha_db=29.5, beta_db_per_mbps=27.0, max_rate_mbps=0.45),
    ),
}


#: Process-wide cache of per-slot R-D increment constants, keyed by
#: ``(sequence, bandwidth, deadline)``.  The engine used to recompute
#: ``beta * B / T`` for every user of every replication; a long sweep
#: asks for the same handful of entries millions of times, so the table
#: is built once per process and shared by every engine instance
#: (including ``--jobs`` pool workers, each of which warms its own).
_RD_SLOT_TABLE: Dict[Tuple[str, float, int], float] = {}


def rd_slot_increment(name: str, bandwidth_mbps: float,
                      deadline_slots: int) -> float:
    """Cached ``R = beta * B / T`` lookup (bit-identical to the direct call).

    The cached value is exactly what
    :meth:`~repro.video.rd_model.MgsRateDistortion.slot_increment`
    returns for the same arguments -- the cache only avoids the repeated
    lookup/validation/arithmetic, never changes the float.
    """
    key = (name.lower(), float(bandwidth_mbps), int(deadline_slots))
    cached = _RD_SLOT_TABLE.get(key)
    hit = cached is not None
    if not hit:
        cached = get_sequence(name).rd.slot_increment(
            bandwidth_mbps, deadline_slots)
        _RD_SLOT_TABLE[key] = cached
    if metrics_enabled():
        global_registry().counter(
            "repro_video_rd_table_requests_total",
            result="hit" if hit else "miss").inc()
    return cached


def get_sequence(name: str) -> VideoSequence:
    """Look up a sequence by (case-insensitive) name.

    Raises
    ------
    ConfigurationError
        If the sequence is not in the library; the message lists the
        available names.
    """
    key = name.lower()
    if key not in SEQUENCE_LIBRARY:
        available = ", ".join(sorted(SEQUENCE_LIBRARY))
        raise ConfigurationError(f"unknown sequence {name!r}; available: {available}")
    return SEQUENCE_LIBRARY[key]
