"""Markov belief tracking across slots (extension to the paper).

The paper fuses each slot's sensing results against the channel's
*stationary* busy probability ``eta_m`` (eq. 2).  But the occupancy model
it adopts is Markov (Section III-A), so the previous slot's posterior
carries information about the current slot: the Bayes-optimal prior is
the previous posterior pushed through the transition matrix,

    Pr{busy_t} = Pr{busy_{t-1}} * (1 - P10) + Pr{idle_{t-1}} * P01.

:class:`ChannelBeliefTracker` maintains that predicted prior per channel
and exposes it in place of ``eta_m``.  Because the collision constraint
of eq. (6) is relative to the posterior, using better-calibrated priors
both raises the expected available channels ``G_t`` *and* keeps the cap
satisfied -- quantified by the A5 ablation benchmark.

This is a strict extension: with ``update`` never called, the tracker's
priors stay at the stationary distribution and fusion reduces exactly to
the paper's eq. (2).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.sensing.detector import SensingResult
from repro.sensing.fusion import (
    fuse_log_odds,
    fuse_posteriors_batched,
    posterior_idle_probability,
    prior_log_odds,
)
from repro.utils.errors import ConfigurationError
from repro.utils.validation import check_probability


class ChannelBeliefTracker:
    """Per-channel busy-probability beliefs propagated through the chain.

    Parameters
    ----------
    p01, p10:
        Transition probabilities per channel (scalars or length-``M``
        arrays), matching the spectrum's occupancy chains.
    n_channels:
        Number of licensed channels ``M``.
    """

    def __init__(self, n_channels: int, p01, p10) -> None:
        if n_channels <= 0:
            raise ConfigurationError(
                f"n_channels must be positive, got {n_channels}")
        self.n_channels = int(n_channels)
        self._p01 = self._broadcast(p01, "p01")
        self._p10 = self._broadcast(p10, "p10")
        if np.any((self._p01 == 0.0) & (self._p10 == 0.0)):
            raise ConfigurationError("p01 and p10 cannot both be zero")
        # Start from the stationary distribution: before any observation
        # the tracker is exactly the paper's prior.
        self._busy = self._p01 / (self._p01 + self._p10)

    def _broadcast(self, value, name: str) -> np.ndarray:
        if np.isscalar(value):
            value = [check_probability(value, name)] * self.n_channels
        arr = np.asarray(value, dtype=float)
        if arr.shape != (self.n_channels,):
            raise ConfigurationError(
                f"{name} must be scalar or length-{self.n_channels}, "
                f"got shape {arr.shape}")
        if np.any(arr < 0.0) or np.any(arr > 1.0):
            raise ConfigurationError(f"{name} entries must be probabilities")
        return arr

    @property
    def busy_priors(self) -> np.ndarray:
        """Predicted busy probability per channel for the current slot."""
        return self._busy.copy()

    def prior(self, channel: int) -> float:
        """Predicted busy probability of one channel (replaces ``eta_m``)."""
        return float(self._busy[channel])

    def predict(self) -> np.ndarray:
        """Advance every belief one slot through the transition matrix.

        Call once per slot *before* fusing that slot's sensing results.
        Returns the predicted busy priors.
        """
        idle = 1.0 - self._busy
        self._busy = self._busy * (1.0 - self._p10) + idle * self._p01
        return self.busy_priors

    def fuse(self, channel: int, results: Sequence[SensingResult]) -> float:
        """Fuse this slot's results against the tracked prior (eq. 2 form).

        Returns the idle posterior and stores the corresponding busy
        posterior as the belief to be propagated next slot.
        """
        if not 0 <= channel < self.n_channels:
            raise ConfigurationError(
                f"channel must be in 0..{self.n_channels - 1}, got {channel}")
        idle_posterior = posterior_idle_probability(self.prior(channel), results)
        self._busy[channel] = 1.0 - idle_posterior
        return idle_posterior

    def fuse_batched(self, observations, counts, false_alarm: float,
                     miss_detection: float) -> np.ndarray:
        """Fuse all channels' observations in one pass.

        Bit-exact counterpart of calling :meth:`fuse` channel by channel
        in index order (each scalar ``fuse`` only reads and writes its
        own channel's belief, so the per-channel updates are
        independent).  Returns the idle posteriors and stores the busy
        complements as next slot's beliefs, exactly as the scalar path
        does.
        """
        idle = fuse_posteriors_batched(
            self._busy, observations, counts, false_alarm, miss_detection)
        self._busy = 1.0 - idle
        return idle

    def fuse_log_odds(self, terms: np.ndarray, tail=(), offset: int = 0,
                      silenced=()) -> list:
        """:func:`~repro.sensing.fusion.fuse_log_odds` against the beliefs.

        Writes the tracked priors' log-odds (validated every slot) into
        row 0 of ``terms``, fuses, and stores the busy complements of the
        idle posteriors as next slot's beliefs.
        """
        terms[0] = prior_log_odds(self._busy.tolist())
        # A tracked belief can reach 0 or 1, and a decisive observation
        # may then contradict it (see fuse_log_odds).
        with np.errstate(invalid="ignore"):
            idle = fuse_log_odds(terms, tail, offset, silenced)
        self._busy = 1.0 - np.array(idle)
        return idle

    def reset(self) -> None:
        """Forget all evidence: return to the stationary priors."""
        self._busy = self._p01 / (self._p01 + self._p10)
