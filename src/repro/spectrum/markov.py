"""Two-state Markov (Gilbert-Elliott) primary-occupancy chains.

Section III-A of the paper models each licensed channel ``m`` as an
independent discrete-time Markov chain over states ``{idle=0, busy=1}``
with transition probabilities ``P01_m`` (idle -> busy) and ``P10_m``
(busy -> idle).  The long-run utilisation by primary users is

    eta_m = P01_m / (P01_m + P10_m)                      (eq. 1)

This module provides the chain itself; the utilisation sweeps of
Figs. 4(c) and 6(a) set ``P01`` through
:func:`repro.experiments.scenarios.utilization_to_p01`.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.utils.errors import ConfigurationError
from repro.utils.rng import RandomState, as_generator
from repro.utils.validation import check_probability

#: Channel state constants (match the paper's S_m(t) encoding).
IDLE = 0
BUSY = 1


class OccupancyChain:
    """Occupancy process of one licensed channel.

    Parameters
    ----------
    p01:
        Transition probability from idle (0) to busy (1).
    p10:
        Transition probability from busy (1) to idle (0).
    initial_state:
        Starting state; ``None`` draws from the stationary distribution so
        that sampled trajectories are stationary from slot 0.
    rng:
        Randomness source (seed, Generator, or ``None``).
    """

    def __init__(self, p01: float, p10: float, *, initial_state: Optional[int] = None,
                 rng: RandomState = None) -> None:
        self.p01 = check_probability(p01, "p01")
        self.p10 = check_probability(p10, "p10")
        if self.p01 == 0.0 and self.p10 == 0.0:
            raise ConfigurationError(
                "p01 and p10 cannot both be zero: the chain would be frozen "
                "and utilisation (eq. 1) undefined")
        self._rng = as_generator(rng)
        if initial_state is None:
            self._state = BUSY if self._rng.random() < self.utilization else IDLE
        else:
            if initial_state not in (IDLE, BUSY):
                raise ConfigurationError(
                    f"initial_state must be 0 (idle) or 1 (busy), got {initial_state!r}")
            self._state = int(initial_state)

    @property
    def utilization(self) -> float:
        """Stationary busy probability eta = P01 / (P01 + P10) (eq. 1)."""
        return self.p01 / (self.p01 + self.p10)

    @property
    def state(self) -> int:
        """Current state: 0 (idle) or 1 (busy)."""
        return self._state

    def step(self) -> int:
        """Advance the chain one time slot and return the new state."""
        if self._state == IDLE:
            if self._rng.random() < self.p01:
                self._state = BUSY
        elif self._rng.random() < self.p10:
            self._state = IDLE
        return self._state

    def sample_trajectory(self, n_slots: int) -> np.ndarray:
        """Sample ``n_slots`` successive states starting from the current one.

        The returned array holds the states *after* each step; the chain's
        internal state advances accordingly.
        """
        if n_slots < 0:
            raise ConfigurationError(f"n_slots must be non-negative, got {n_slots}")
        out = np.empty(n_slots, dtype=np.int8)
        for t in range(n_slots):
            out[t] = self.step()
        return out

    def transition_matrix(self) -> np.ndarray:
        """Row-stochastic transition matrix ``P[i, j] = Pr{next=j | cur=i}``."""
        return np.array([[1.0 - self.p01, self.p01],
                         [self.p10, 1.0 - self.p10]])

    def __repr__(self) -> str:
        return (f"OccupancyChain(p01={self.p01}, p10={self.p10}, "
                f"state={self._state}, utilization={self.utilization:.3f})")
