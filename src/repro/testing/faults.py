"""Deterministic fault injection for the simulation runtime.

A fault-tolerance layer is only trustworthy if every degradation path is
exercised end-to-end, and the interesting failures (a non-convergent
slot, a NaN fading draw, a sensing outage, a hang) are precisely the
ones that never occur on the happy path.  A :class:`FaultPlan` injects
them *deterministically* so the robustness suite can assert exact
outcomes:

* **Forced non-convergence** -- the engine treats the primary allocator
  as having raised :class:`~repro.utils.errors.ConvergenceError` at the
  chosen slots, driving the :class:`~repro.sim.fallback.FallbackChain`
  down to the heuristic fallback.
* **NaN fading draws** -- the chosen slots' block-fading margins are
  replaced with NaN; the engine's finiteness validation converts that
  into a :class:`~repro.utils.errors.NumericalError`, which the runner's
  per-replication isolation catches (retry, then record a failed run).
* **Sensing outages** -- the chosen channels' sensing observations go
  missing for the chosen slots, so fusion falls back to the channel
  prior; the engine records a ``"sensing-outage"`` degradation event and
  carries on.
* **Hangs and slowdowns** -- ``hang_slots`` / ``slow_slots`` make the
  chosen slots sleep (far past any sane deadline, or by a fixed
  dilation), exercising the supervision layer's per-cell watchdog and
  whole-sweep deadline without ever perturbing RNG streams or results.

The plan is attached to a scenario via ``ScenarioConfig.fault_plan`` and
consumed by the engine through duck-typed hooks, so production code never
imports this module.  Faults can be scoped to specific Monte-Carlo
replications with ``poison_runs``; the runner announces each replication
via :meth:`FaultPlan.begin_run` before constructing its engine.

Slot indices are 0-based engine slots (the ``slot`` argument the engine
uses *during* the step, i.e. ``engine.slot`` before the step completes).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, Optional


@dataclass
class FaultPlan:
    """Deterministic schedule of injected failures for one scenario.

    Attributes
    ----------
    nonconvergent_slots:
        Slots at which the primary allocator is forced to "fail to
        converge" (degrades to the fallback chain).
    nan_fading_slots:
        Slots whose fading draws are replaced by NaN (kills the
        replication with a :class:`~repro.utils.errors.NumericalError`).
    sensing_outage_slots:
        Slots at which sensing observations go missing.
    sensing_outage_channels:
        Channels affected by the outage (``None`` = every channel).
    hang_slots:
        Slots at which the engine sleeps for ``hang_seconds`` before
        doing any work -- long enough (default: one hour) that only a
        watchdog kill ends the cell.  Purely temporal: RNG streams and
        results are untouched.
    hang_seconds:
        Sleep length for ``hang_slots``.
    slow_slots:
        Slots dilated by ``slow_seconds`` of extra sleep each -- the
        "pathologically slow, but still finishing" failure mode, for
        whole-sweep deadline tests.
    slow_seconds:
        Extra seconds per slot in ``slow_slots``.
    poison_runs:
        Monte-Carlo run indices the faults apply to (``None`` = every
        run).  Scoping is by *replication index*, not seed, so a retried
        attempt of a poisoned run is poisoned too -- exactly what the
        ``n_failed`` accounting needs to be exercised.
    """

    nonconvergent_slots: FrozenSet[int] = frozenset()
    nan_fading_slots: FrozenSet[int] = frozenset()
    sensing_outage_slots: FrozenSet[int] = frozenset()
    sensing_outage_channels: Optional[FrozenSet[int]] = None
    hang_slots: FrozenSet[int] = frozenset()
    hang_seconds: float = 3600.0
    slow_slots: FrozenSet[int] = frozenset()
    slow_seconds: float = 0.05
    poison_runs: Optional[FrozenSet[int]] = None
    _current_run: Optional[int] = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.nonconvergent_slots = frozenset(self.nonconvergent_slots)
        self.nan_fading_slots = frozenset(self.nan_fading_slots)
        self.sensing_outage_slots = frozenset(self.sensing_outage_slots)
        self.hang_slots = frozenset(self.hang_slots)
        self.slow_slots = frozenset(self.slow_slots)
        if self.sensing_outage_channels is not None:
            self.sensing_outage_channels = frozenset(self.sensing_outage_channels)
        if self.poison_runs is not None:
            self.poison_runs = frozenset(self.poison_runs)

    # -- run scoping -----------------------------------------------------

    def begin_run(self, run_index: int, attempt: int = 0) -> None:
        """Announce the replication about to be simulated.

        Called by the Monte-Carlo runner before each engine run (for both
        the first attempt and the retry).  An engine used standalone
        never calls this, in which case the plan applies to that run.
        """
        del attempt  # faults are keyed by replication, not attempt
        self._current_run = int(run_index)

    def _armed(self) -> bool:
        if self.poison_runs is None or self._current_run is None:
            return True
        return self._current_run in self.poison_runs

    # -- engine hooks ----------------------------------------------------

    def forces_nonconvergence(self, slot: int) -> bool:
        """Whether the primary allocator must fail at this slot."""
        return self._armed() and slot in self.nonconvergent_slots

    def poisons_fading(self, slot: int) -> bool:
        """Whether this slot's fading margins are replaced with NaN."""
        return self._armed() and slot in self.nan_fading_slots

    def sensing_outage(self, slot: int,
                       n_channels: int) -> FrozenSet[int]:
        """Channels whose observations go missing at this slot."""
        if not (self._armed() and slot in self.sensing_outage_slots):
            return frozenset()
        if self.sensing_outage_channels is None:
            return frozenset(range(n_channels))
        return frozenset(c for c in self.sensing_outage_channels
                         if 0 <= c < n_channels)

    def injected_delay(self, slot: int) -> float:
        """Seconds the engine must sleep before simulating this slot.

        ``hang_slots`` dominate ``slow_slots`` when both name a slot.
        The delay is pure wall-clock -- no RNG stream is consumed -- so
        results stay byte-identical to a fault-free run modulo timing.
        """
        if not self._armed():
            return 0.0
        if slot in self.hang_slots:
            return float(self.hang_seconds)
        if slot in self.slow_slots:
            return float(self.slow_seconds)
        return 0.0
