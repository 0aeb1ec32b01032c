"""Performance bounds for the greedy channel allocation (Section IV-C3).

Two results are implemented:

* **Theorem 2** (closed form): the greedy objective is at least
  ``1 / (1 + D_max)`` of the global optimum, where ``D_max`` is the
  maximum node degree of the interference graph.  The ratio applies to
  the *incremental* objective ``Q - Q(empty)``: the derivation telescopes
  the per-step gains ``Delta_l`` from ``Q(pi_0) = Q(empty)``, so the
  MBS-only value every allocation can achieve is factored out.
* **eq. (23)** (data dependent, tighter):
  ``Q(Omega) <= Q(pi_L) + sum_l D(l) * Delta_l`` where ``D(l)`` is the
  degree of the FBS chosen in greedy step ``l`` and ``Delta_l`` that
  step's objective gain.  This is the "Upper bound" curve of Figs.
  6(a)-(c).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.net.interference import InterferenceGraph, max_degree
from repro.utils.errors import ConfigurationError


@dataclass(frozen=True)
class GreedyStep:
    """One step of the greedy algorithm's execution trace.

    Attributes
    ----------
    fbs_id:
        FBS chosen in this step.
    channel:
        Licensed channel allocated to it.
    gain:
        ``Delta_l`` -- increase of the objective ``Q`` achieved.
    degree:
        ``D(l)`` -- the chosen FBS's degree in the interference graph.
    conflict_gain_sum:
        Evaluated version of this step's bound contribution: the summed
        marginal gains ``Delta(sigma U pi_{l-1}, pi_{l-1})`` of the
        conflicting pairs actually pruned at this step (each capped at
        ``Delta_l`` per Lemma 6).  Because ``omega_l`` is contained in the
        pruned set, replacing ``D(l) * Delta_l`` by this sum keeps
        Lemma 7's inequality valid while being strictly tighter.  ``None``
        when the greedy ran without conflict evaluation.
    """

    fbs_id: int
    channel: int
    gain: float
    degree: int
    conflict_gain_sum: float = None

    def __post_init__(self) -> None:
        if self.gain < -1e-9:
            raise ConfigurationError(
                f"greedy step gain must be non-negative, got {self.gain}")
        if self.degree < 0:
            raise ConfigurationError(f"degree must be non-negative, got {self.degree}")
        if self.conflict_gain_sum is not None and self.conflict_gain_sum < -1e-9:
            raise ConfigurationError(
                f"conflict_gain_sum must be non-negative, got {self.conflict_gain_sum}")

    @property
    def bound_term(self) -> float:
        """This step's contribution to the eq. (23) upper bound.

        The evaluated conflict-gain sum when available, the closed-form
        ``D(l) * Delta_l`` otherwise.
        """
        if self.conflict_gain_sum is not None:
            return self.conflict_gain_sum
        return self.degree * self.gain


@dataclass(frozen=True)
class GreedyTrace:
    """Complete execution trace of one greedy run.

    Attributes
    ----------
    steps:
        The chosen FBS-channel pairs in order.
    q_empty:
        ``Q(empty)`` -- objective with no licensed channel allocated
        (users may still stream from the MBS).
    q_final:
        ``Q(pi_L)`` -- objective of the greedy allocation.
    """

    steps: Sequence[GreedyStep]
    q_empty: float
    q_final: float

    @property
    def total_gain(self) -> float:
        """``sum_l Delta_l`` -- telescopes to ``Q(pi_L) - Q(empty)``."""
        return sum(step.gain for step in self.steps)


def theorem2_factor(graph: InterferenceGraph) -> float:
    """The guarantee ``1 / (1 + D_max)`` of Theorem 2.

    Equals 1 for non-interfering deployments (``D_max = 0``), where the
    greedy/dual combination is provably optimal.
    """
    return 1.0 / (1.0 + max_degree(graph))


def tighter_upper_bound(trace: GreedyTrace) -> float:
    """The data-dependent bound of eq. (23) on the optimal objective.

    ``Q(Omega) <= Q(pi_L) + sum_l <bound term>_l``.  The bound term is
    ``D(l) * Delta_l`` as printed in the paper, or -- when the greedy ran
    with conflict evaluation -- the strictly tighter sum of the pruned
    conflicting pairs' actual marginal gains (see
    :class:`GreedyStep.bound_term`).  Both instantiate Lemma 7, so both
    upper-bound the global optimum.
    """
    return trace.q_final + sum(step.bound_term for step in trace.steps)
