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

With ``M`` = 4-12 channels per slot, every per-channel step here --
the rule, the decisions, ``A(t)``, the collision counts -- runs over
Python floats and ints; numpy holds the public :class:`AccessDecision`
arrays, draws the ``M`` uniforms and sums ``G_t``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.utils.errors import ConfigurationError
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
    accessed:
        ``A(t)`` as ascending Python ints -- the list the engine reads;
        derived from ``decisions`` when not given.
    """

    access_probabilities: np.ndarray
    decisions: np.ndarray
    posteriors: np.ndarray
    accessed: Optional[List[int]] = field(default=None, compare=False,
                                          repr=False)

    def __post_init__(self) -> None:
        if self.accessed is None:
            object.__setattr__(self, "accessed", np.flatnonzero(
                np.asarray(self.decisions) == 0).tolist())

    @property
    def available_channels(self) -> np.ndarray:
        """The set ``A(t) = {m : D_m = 0}`` of channels to be accessed."""
        return np.flatnonzero(self.decisions == 0)

    @property
    def expected_available(self) -> float:
        """``G_t = sum_{m in A(t)} P_A^m`` -- expected available channels.

        See :func:`expected_available`.
        """
        return expected_available(self.posteriors.tolist(), self.accessed)

    def expected_available_subset(self, channels: Sequence[int]) -> float:
        """``G_t`` restricted to ``channels`` (used for per-FBS allocations).

        Channels outside ``A(t)`` contribute nothing even if listed, and a
        channel listed more than once still counts once -- ``G`` sums over
        a channel *set*, so duplicated indices must not inflate it.
        """
        available = set(self.accessed)
        return float(sum(self.posteriors[m] for m in dict.fromkeys(channels)
                         if m in available))


def expected_available(posteriors: Sequence[float],
                       accessed: Sequence[int]) -> float:
    """``G_t = sum_{m in A(t)} P_A^m`` -- expected available channels.

    Summed by numpy: its pairwise order (8 lanes from 8 terms up) is
    what the seed-stability goldens pin.
    """
    if not accessed:
        return 0.0
    return float(np.array([posteriors[m] for m in accessed]).sum())


class AccessPolicy:
    """The collision-capped probabilistic access policy of eqs. (5)-(7).

    The per-channel rule lives in one place, :meth:`access_rule`;
    :meth:`decide`, :meth:`access_probability` and
    :meth:`access_probabilities` all apply it over Python floats.  A
    variant policy (:class:`HardThresholdAccessPolicy`) overrides only
    the rule.

    Parameters
    ----------
    collision_caps:
        Per-channel maximum allowable collision probabilities ``gamma_m``
        (validated once, here).
    rng:
        Randomness used to realise the probabilistic decisions ``D_m``.
    """

    def __init__(self, collision_caps, *, rng: RandomState = None) -> None:
        self.collision_caps = check_probability_array(collision_caps, "collision_caps")
        self._caps: List[float] = self.collision_caps.tolist()
        self._rng = as_generator(rng)

    @property
    def n_channels(self) -> int:
        """Number of licensed channels the policy covers."""
        return len(self._caps)

    @staticmethod
    def access_rule(gamma: float, posterior_idle: float) -> float:
        """``P_D = min{gamma / (1 - P_A), 1}`` (eq. 7)."""
        busy_posterior = 1.0 - posterior_idle
        if busy_posterior <= gamma:
            # Even accessing with certainty keeps expected collisions below
            # the cap.
            return 1.0
        return gamma / busy_posterior

    def access_probability(self, channel: int, posterior_idle: float) -> float:
        """``P_D`` for one channel given its fused idle posterior."""
        posterior_idle = check_probability(posterior_idle, "posterior_idle")
        return self.access_rule(self._caps[channel], posterior_idle)

    def access_probabilities(self, posteriors) -> np.ndarray:
        """``P_D`` for every channel at once, as an array."""
        return np.array(list(map(self.access_rule, self._caps,
                                 self._check(posteriors))))

    def _check(self, posteriors) -> List[float]:
        """This slot's posteriors as validated Python floats."""
        if isinstance(posteriors, np.ndarray):
            values = posteriors.tolist() if posteriors.ndim == 1 else []
        else:
            values = list(posteriors)
        try:
            valid = bool(values) and all(0.0 <= p <= 1.0 for p in values)
        except TypeError:
            valid = False
        if not valid:
            check_probability_array(posteriors, "posteriors")
            raise ConfigurationError(
                f"posteriors must be probabilities, got {posteriors!r}")
        if len(values) != len(self._caps):
            raise ValueError(
                f"expected {len(self._caps)} posteriors, got {len(values)}")
        return values

    def decide(self, posteriors) -> AccessDecision:
        """Draw access decisions ``D_m`` for every channel in one slot.

        Applies :meth:`access_rule` per channel over Python floats and
        draws ``M`` uniforms in one ``rng.random(M)`` call; channel ``m``
        is accessed iff its uniform is below ``P_D``.  The decision and
        the RNG state afterwards are bit-identical to the per-channel
        scalar oracle in ``tests/oracle.py``.

        Parameters
        ----------
        posteriors:
            Fused idle posteriors ``P_A^m`` per channel, length ``M``
            (validated every slot).
        """
        values = self._check(posteriors)
        probs = list(map(self.access_rule, self._caps, values))
        draws = self._rng.random(len(probs)).tolist()
        decisions = [0 if draw < prob else 1
                     for draw, prob in zip(draws, probs)]
        return AccessDecision(
            access_probabilities=np.array(probs),
            decisions=np.array(decisions, dtype=np.int8),
            posteriors=np.array(values, dtype=float),
            accessed=[m for m, decision in enumerate(decisions)
                      if decision == 0],
        )


@dataclass
class CollisionTracker:
    """Accounting of actual collisions with primary users.

    A collision happens when the CR network accesses a channel (``D_m = 0``)
    whose *true* state is busy.  :class:`CollisionTracker` accumulates
    per-channel access and collision counts (Python ints; the
    ``accesses``/``collisions`` arrays are built on read) so tests and
    experiments can verify the empirical collision probability stays
    below ``gamma_m``.
    """

    n_channels: int
    slots: int = field(init=False, default=0)
    _accesses: List[int] = field(init=False, repr=False)
    _collisions: List[int] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._accesses = [0] * self.n_channels
        self._collisions = [0] * self.n_channels

    @property
    def accesses(self) -> np.ndarray:
        """Per-channel access counts (int64)."""
        return np.array(self._accesses, dtype=np.int64)

    @property
    def collisions(self) -> np.ndarray:
        """Per-channel collision counts (int64)."""
        return np.array(self._collisions, dtype=np.int64)

    def record(self, decision: AccessDecision, true_occupancy) -> int:
        """Fold one slot's decision against the true channel occupancy.

        Returns the number of collisions in this slot.
        """
        true_occupancy = np.asarray(true_occupancy)
        if true_occupancy.shape != (self.n_channels,):
            raise ValueError(
                f"true_occupancy must have shape ({self.n_channels},), "
                f"got {true_occupancy.shape}")
        states = true_occupancy.tolist()
        collided = 0
        for channel in decision.accessed:
            self._accesses[channel] += 1
            if states[channel] == 1:
                self._collisions[channel] += 1
                collided += 1
        self.slots += 1
        return collided

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

    @staticmethod
    def access_rule(gamma: float, posterior_idle: float) -> float:
        """1 if the busy posterior clears the cap, else 0."""
        return 1.0 if 1.0 - posterior_idle <= gamma else 0.0
