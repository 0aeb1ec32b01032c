"""Opportunistic channel access with primary-user protection (Section III-C).

After fusion, the CR network decides per channel whether to access it in
the transmission phase.  The paper uses a *probabilistic* policy: access
channel ``m`` (set ``D_m(t) = 0``) with probability ``P_D`` chosen as large
as possible subject to the collision cap (eq. 6):

    (1 - P_A) * P_D <= gamma_m
    =>  P_D = min{ gamma_m / (1 - P_A), 1 }              (eq. 7)

The *expected number of available channels* used by the rate model is
``G_t = sum_{m in A(t)} P_A^m`` where ``A(t)`` is the set of channels the
policy decided to access.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence

import numpy as np

from repro.utils.rng import RandomState, as_generator
from repro.utils.validation import check_probability, check_probability_array


@dataclass(frozen=True)
class AccessDecision:
    """Outcome of the access policy for one slot.

    Attributes
    ----------
    access_probabilities:
        ``P_D`` per licensed channel (eq. 7).
    decisions:
        ``D_m`` per channel: 0 = access (considered idle), 1 = abstain.
    posteriors:
        Fused idle posteriors ``P_A`` per channel.
    """

    access_probabilities: np.ndarray
    decisions: np.ndarray
    posteriors: np.ndarray

    @property
    def available_channels(self) -> np.ndarray:
        """The set ``A(t) = {m : D_m = 0}`` of channels to be accessed."""
        return np.flatnonzero(self.decisions == 0)

    @property
    def expected_available(self) -> float:
        """``G_t = sum_{m in A(t)} P_A^m`` -- expected available channels."""
        available = self.available_channels
        if available.size == 0:
            return 0.0
        return float(self.posteriors[available].sum())

    def expected_available_subset(self, channels: Sequence[int]) -> float:
        """``G_t`` restricted to ``channels`` (used for per-FBS allocations).

        Channels outside ``A(t)`` contribute nothing even if listed, and a
        channel listed more than once still counts once -- ``G`` sums over
        a channel *set*, so duplicated indices must not inflate it.
        """
        available = set(self.available_channels.tolist())
        return float(sum(self.posteriors[m] for m in dict.fromkeys(channels)
                         if m in available))


class AccessPolicy:
    """The collision-capped probabilistic access policy of eqs. (5)-(7).

    Parameters
    ----------
    collision_caps:
        Per-channel maximum allowable collision probabilities ``gamma_m``.
    rng:
        Randomness used to realise the probabilistic decisions ``D_m``.
    """

    def __init__(self, collision_caps, *, rng: RandomState = None) -> None:
        self.collision_caps = check_probability_array(collision_caps, "collision_caps")
        self._rng = as_generator(rng)

    @property
    def n_channels(self) -> int:
        """Number of licensed channels the policy covers."""
        return int(self.collision_caps.size)

    def access_probability(self, channel: int, posterior_idle: float) -> float:
        """``P_D`` for one channel given its fused idle posterior (eq. 7)."""
        posterior_idle = check_probability(posterior_idle, "posterior_idle")
        gamma = self.collision_caps[channel]
        busy_posterior = 1.0 - posterior_idle
        if busy_posterior <= gamma:
            # Even accessing with certainty keeps expected collisions below
            # the cap.
            return 1.0
        return gamma / busy_posterior

    def access_probabilities(self, posteriors: np.ndarray) -> np.ndarray:
        """Vectorized ``P_D`` for every channel at once (eq. 7).

        Bit-exact batched counterpart of calling
        :meth:`access_probability` per channel: the comparisons and the
        ``gamma / (1 - P_A)`` divisions are the same IEEE-754 double
        operations element by element, so the returned array matches the
        scalar loop exactly.  Subclasses overriding
        :meth:`access_probability` must override this too (see
        :class:`HardThresholdAccessPolicy`).
        """
        busy = 1.0 - posteriors
        exceeds = busy > self.collision_caps
        probs = np.ones(posteriors.size)
        np.divide(self.collision_caps, busy, out=probs, where=exceeds)
        return probs

    def decide(self, posteriors) -> AccessDecision:
        """Draw access decisions ``D_m`` for every channel in one slot.

        Computes every ``P_D`` through :meth:`access_probabilities` and
        draws ``M`` uniforms in one ``rng.random(M)`` call; the decision
        and the RNG state afterwards are bit-identical to the
        per-channel scalar oracle in ``tests/oracle.py``.

        Parameters
        ----------
        posteriors:
            Fused idle posteriors ``P_A^m`` per channel, length ``M``.
        """
        posteriors = check_probability_array(posteriors, "posteriors")
        if posteriors.size != self.n_channels:
            raise ValueError(
                f"expected {self.n_channels} posteriors, got {posteriors.size}")
        probs = self.access_probabilities(posteriors)
        draws = self._rng.random(self.n_channels)
        decisions = np.where(draws < probs, 0, 1).astype(np.int8)
        return AccessDecision(
            access_probabilities=probs,
            decisions=decisions,
            posteriors=posteriors.copy(),
        )


@dataclass
class CollisionTracker:
    """Accounting of actual collisions with primary users.

    A collision happens when the CR network accesses a channel (``D_m = 0``)
    whose *true* state is busy.  :class:`CollisionTracker` accumulates
    per-channel access and collision counts so tests and experiments can
    verify the empirical collision probability stays below ``gamma_m``.
    """

    n_channels: int
    accesses: np.ndarray = field(init=False)
    collisions: np.ndarray = field(init=False)
    slots: int = field(init=False, default=0)

    def __post_init__(self) -> None:
        self.accesses = np.zeros(self.n_channels, dtype=np.int64)
        self.collisions = np.zeros(self.n_channels, dtype=np.int64)

    def record(self, decision: AccessDecision, true_occupancy) -> None:
        """Fold one slot's decision against the true channel occupancy."""
        true_occupancy = np.asarray(true_occupancy)
        if true_occupancy.shape != (self.n_channels,):
            raise ValueError(
                f"true_occupancy must have shape ({self.n_channels},), "
                f"got {true_occupancy.shape}")
        accessed = decision.decisions == 0
        self.accesses += accessed.astype(np.int64)
        self.collisions += (accessed & (true_occupancy == 1)).astype(np.int64)
        self.slots += 1

    def collision_rates(self) -> np.ndarray:
        """Per-channel empirical collision probability, *per slot*.

        The paper's constraint (eq. 6) bounds the unconditional per-slot
        collision probability ``Pr{access and busy}``, so the denominator
        is the number of slots, not the number of accesses.
        """
        if self.slots == 0:
            return np.zeros(self.n_channels)
        return self.collisions / float(self.slots)


class HardThresholdAccessPolicy(AccessPolicy):
    """Ablation variant of the access policy: deterministic thresholding.

    Instead of the paper's probabilistic rule (eq. 7), access channel
    ``m`` iff the fused busy posterior is at most ``gamma_m``:

        D_m = 0  <=>  1 - P_A <= gamma_m

    This also satisfies the collision cap of eq. (6) -- accessed channels
    have ``(1 - P_A) * 1 <= gamma`` -- but wastes every opportunity whose
    busy posterior sits just above the cap, opportunities the
    probabilistic rule can still exploit a fraction of the time.  Used by
    the A1 ablation benchmark to quantify that loss.
    """

    def access_probability(self, channel: int, posterior_idle: float) -> float:
        """1 if the busy posterior clears the cap, else 0."""
        posterior_idle = check_probability(posterior_idle, "posterior_idle")
        return 1.0 if 1.0 - posterior_idle <= self.collision_caps[channel] else 0.0

    def access_probabilities(self, posteriors: np.ndarray) -> np.ndarray:
        """Vectorized thresholding, element-identical to the scalar rule."""
        return np.where(1.0 - posteriors <= self.collision_caps, 1.0, 0.0)
