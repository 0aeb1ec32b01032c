"""GOP deadline bookkeeping.

Each GOP of a real-time stream must be fully scheduled within the next
``T`` time slots (Section III-E); at the deadline, undelivered packets are
discarded and the next GOP window starts.  :class:`GopClock` tracks the
position inside the current window and the accumulated PSNR state
``W_j^t`` that problem (10) evolves:

    W_j^t = W_j^{t-1} + xi_0 rho_0 R_0 + xi_1 rho_1 G_t R_1

with ``W_j^0 = alpha_j`` (base layer assumed protected/delivered, as the
recursion in Section IV-A initialises).
"""

from __future__ import annotations

from typing import List

from repro.utils.errors import ConfigurationError
from repro.video.sequences import VideoSequence


class GopClock:
    """Deadline window and PSNR accumulator for one video stream.

    Parameters
    ----------
    sequence:
        The video being streamed.
    deadline_slots:
        ``T`` -- slots available to deliver each GOP (10 in the paper).
    """

    def __init__(self, sequence: VideoSequence, deadline_slots: int, *,
                 quantum_db: float = 0.0) -> None:
        if deadline_slots <= 0:
            raise ConfigurationError(
                f"deadline_slots must be positive, got {deadline_slots}")
        if quantum_db < 0:
            raise ConfigurationError(
                f"quantum_db must be non-negative, got {quantum_db}")
        self.sequence = sequence
        # The sequence is frozen: read its quality ceiling once.
        self._max_psnr_db = sequence.rd.max_psnr_db
        self.deadline_slots = int(deadline_slots)
        #: NAL-unit granularity: when positive, a GOP's recorded quality
        #: is the base layer plus whole multiples of this quantum -- MGS
        #: decoders can only use fully received NAL units (Section I), so
        #: a partially delivered unit contributes nothing.  Zero keeps the
        #: paper's fluid model.  May be updated between GOP windows (the
        #: engine rescales it when complexity traces are enabled).
        self.quantum_db = float(quantum_db)
        self._slot_in_window = 0
        self._psnr_db = sequence.base_psnr_db
        self._completed_gop_psnrs: List[float] = []

    @property
    def slot_in_window(self) -> int:
        """Slots already consumed in the current GOP window (0..T-1)."""
        return self._slot_in_window

    @property
    def slots_remaining(self) -> int:
        """Slots left before the current GOP's deadline."""
        return self.deadline_slots - self._slot_in_window

    @property
    def psnr_db(self) -> float:
        """Current accumulated PSNR state ``W_j^t`` of the open GOP."""
        return self._psnr_db

    @property
    def completed_gop_psnrs(self) -> List[float]:
        """Final PSNR of every GOP whose deadline has passed."""
        return list(self._completed_gop_psnrs)

    @property
    def max_psnr_db(self) -> float:
        """Quality ceiling of one GOP (all enhancement NAL units received)."""
        return self._max_psnr_db

    @property
    def headroom_db(self) -> float:
        """Quality still deliverable before the current GOP saturates.

        Zero once every enhancement bit of the GOP has been delivered --
        at that point the base station simply has no more data to send
        this window, so schedulers should treat the stream as inactive.
        """
        ceiling = self._max_psnr_db
        if ceiling == float("inf"):
            return ceiling
        return max(0.0, ceiling - self._psnr_db)

    def add_quality(self, increment_db: float) -> float:
        """Fold one slot's realised PSNR increment into ``W_j^t``.

        The accumulator saturates at the GOP's quality ceiling (a GOP only
        carries ``max_rate_mbps`` worth of enhancement bits); the method
        returns the *effective* increment after clamping, so callers can
        account for wasted capacity.
        """
        if increment_db < 0:
            raise ConfigurationError(
                f"increment_db must be non-negative, got {increment_db}")
        effective = min(increment_db, self.headroom_db)
        self._psnr_db += effective
        return effective

    def tick(self) -> bool:
        """Advance one slot; returns ``True`` if a GOP deadline elapsed.

        On deadline expiry the accumulated PSNR is recorded, the window
        resets, and the accumulator restarts at the base-layer quality
        (overdue enhancement packets are discarded, per Section III-E).
        """
        self._slot_in_window += 1
        if self._slot_in_window < self.deadline_slots:
            return False
        recorded = self._psnr_db
        if self.quantum_db > 0.0:
            gain = recorded - self.sequence.base_psnr_db
            recorded = (self.sequence.base_psnr_db
                        + self.quantum_db * int(gain / self.quantum_db))
        self._completed_gop_psnrs.append(recorded)
        self._slot_in_window = 0
        self._psnr_db = self.sequence.base_psnr_db
        return True

    def mean_gop_psnr(self) -> float:
        """Average PSNR over completed GOPs (the figure-of-merit plotted).

        Falls back to the in-progress accumulator when no GOP has
        completed yet (e.g. horizons shorter than one deadline).
        """
        if not self._completed_gop_psnrs:
            return self._psnr_db
        return sum(self._completed_gop_psnrs) / len(self._completed_gop_psnrs)

    def __repr__(self) -> str:
        return (f"GopClock(sequence={self.sequence.name!r}, T={self.deadline_slots}, "
                f"slot={self._slot_in_window}, W={self._psnr_db:.2f} dB)")
