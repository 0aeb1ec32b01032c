"""Per-slot solver fallback chain and degradation accounting.

A production sweep must not lose an entire figure because one slot of one
replication hit a pathological problem instance: a dual solver that fails
to converge (or is configured ``strict=True`` and raises), a numerically
corrupted allocation (NaN shares), or an infeasible time-share vector.
:class:`FallbackChain` wraps the scheme's allocator with a degradation
path: each allocator in the chain is tried in order, its output is
validated with :func:`check_allocation`, and on failure the engine
degrades to the next allocator while recording a structured
:class:`DegradationEvent` (slot, cause, residual, fallback used) instead
of crashing.  The events ride along in
:class:`~repro.sim.metrics.RunMetrics` so experiments can report *how
often* they degraded, not just their final numbers.

The engine builds its chain through :func:`fallback_chain_for`: the
configured scheme first, then every registered scheme carrying the
``fallback_eligible`` capability (in registration order).  Among the
built-ins only ``heuristic1`` is fallback-eligible -- the
equal-allocation heuristic is closed-form and cannot fail to converge,
which makes it a safe terminal fallback for every scheme.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.core.problem import Allocation, SlotProblem
from repro.obs.logging import get_logger
from repro.obs.trace import active_tracer
from repro.utils.errors import AllocationFailedError, ConvergenceError, ReproError

logger = get_logger(__name__)

#: Feasibility slack when validating per-station time-share sums.
_FEASIBILITY_TOL = 1e-6


@dataclass(frozen=True)
class DegradationEvent:
    """One recorded degradation of a slot's allocation path.

    Attributes
    ----------
    slot:
        0-based slot index at which the degradation happened.
    cause:
        Machine-readable cause: ``"convergence"`` (solver raised
        :class:`ConvergenceError`), ``"non-finite"`` (NaN/inf in the
        allocation), ``"infeasible"`` (per-station shares exceed the
        slot), ``"allocator-error"`` (any other :class:`ReproError`),
        ``"injected-nonconvergence"`` (fault harness), or
        ``"sensing-outage"`` (a channel's observations went missing and
        fusion fell back to the prior).
    allocator:
        Name of the allocator (or subsystem) that failed.
    fallback:
        Name of the allocator the slot degraded to (``"none"`` when the
        failure was terminal or the event is informational).
    residual:
        Convergence residual when the cause carries one.
    detail:
        Free-form human-readable context.
    """

    slot: int
    cause: str
    allocator: str
    fallback: str = "none"
    residual: Optional[float] = None
    detail: str = ""

    def to_dict(self) -> dict:
        """JSON-compatible representation (checkpoint / results files)."""
        return {
            "slot": self.slot,
            "cause": self.cause,
            "allocator": self.allocator,
            "fallback": self.fallback,
            "residual": self.residual,
            "detail": self.detail,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "DegradationEvent":
        """Inverse of :meth:`to_dict`."""
        residual = data.get("residual")
        return cls(
            slot=int(data["slot"]),
            cause=str(data["cause"]),
            allocator=str(data["allocator"]),
            fallback=str(data.get("fallback", "none")),
            residual=None if residual is None else float(residual),
            detail=str(data.get("detail", "")),
        )


def check_allocation(problem: SlotProblem,
                     allocation: Allocation) -> Optional[str]:
    """Validate an allocation; return a failure cause or ``None`` if usable.

    Checks, in order:

    * every time share and the objective are finite (``"non-finite"``);
    * every share lies in ``[0, 1]`` and each station's shares sum to at
      most the slot (``"infeasible"``).

    Each cell's load is summed over its users in user order.  The cells
    are the scenario's per-FBS grouping
    (:attr:`~repro.core.problem.StaticColumns.groups`), built once, so
    the whole check is a handful of float comparisons per user, linear
    in the users however many FBSs there are, and the engine can afford
    it on every slot.
    """
    shares = list(allocation.rho_mbs.values()) + list(allocation.rho_fbs.values())
    if not all(map(math.isfinite, shares)):
        return "non-finite"
    if not math.isfinite(allocation.objective):
        return "non-finite"
    if any(share < -_FEASIBILITY_TOL or share > 1.0 + _FEASIBILITY_TOL
           for share in shares):
        return "infeasible"
    mbs_load = sum(allocation.rho_mbs.get(uid, 0.0)
                   for uid in allocation.mbs_user_ids)
    if mbs_load > 1.0 + _FEASIBILITY_TOL:
        return "infeasible"
    static = problem.columns.static
    user_ids = static.user_ids
    for members in static.groups.values():
        cell_load = sum(
            allocation.rho_fbs.get(user_ids[j], 0.0)
            for j in members
            if user_ids[j] not in allocation.mbs_user_ids)
        if cell_load > 1.0 + _FEASIBILITY_TOL:
            return "infeasible"
    return None


def fallback_chain_for(scheme: str, allocator: object,
                       registry=None) -> "FallbackChain":
    """Build the degradation chain for a scheme's allocator.

    The chain starts with ``(scheme, allocator)`` and appends every
    *other* registered scheme whose :class:`~repro.registry.schemes.
    SchemeInfo` carries ``fallback_eligible``, in registration order
    (freshly instantiated -- fallback allocators never share state with
    the primary).  A fallback-eligible primary therefore gets a
    single-link chain, exactly as ``heuristic1`` always has.
    """
    if registry is None:
        from repro.registry.schemes import scheme_registry

        registry = scheme_registry()
    chain = [(scheme, allocator)]
    chain.extend((info.name, info.create()) for info in registry
                 if info.fallback_eligible and info.name != scheme)
    return FallbackChain(chain)


def _note_degradation(event: DegradationEvent) -> None:
    """Narrate one degradation on the log and the active trace."""
    logger.warning("slot %d: %s degraded (%s) -> %s",
                   event.slot, event.allocator, event.cause, event.fallback)
    tracer = active_tracer()
    if tracer is not None:
        tracer.event("degradation", slot=event.slot, cause=event.cause,
                     allocator=event.allocator, fallback=event.fallback)


class FallbackChain:
    """Ordered chain of allocators with validation between links.

    Parameters
    ----------
    allocators:
        ``[(name, allocator), ...]`` tried in order.  The first allocator
        is the scheme under evaluation; later entries are degradation
        targets.  Every allocator exposes ``allocate(problem) ->
        Allocation``.
    """

    def __init__(self, allocators: Sequence[Tuple[str, object]]) -> None:
        if not allocators:
            raise ValueError("FallbackChain needs at least one allocator")
        self.allocators = list(allocators)

    def allocate(self, problem: SlotProblem, *, slot: int,
                 inject_nonconvergence: bool = False
                 ) -> Tuple[Allocation, List[DegradationEvent]]:
        """Allocate one slot, degrading down the chain on failure.

        Parameters
        ----------
        problem:
            The slot problem.
        slot:
            0-based slot index (recorded in events).
        inject_nonconvergence:
            Fault-injection hook: treat the *primary* allocator as having
            raised :class:`ConvergenceError` without running it (the
            deterministic failure used by the robustness suite).

        Returns
        -------
        (allocation, events):
            The first allocation that validates, plus one
            :class:`DegradationEvent` per failed stage (empty on the
            happy path).

        Raises
        ------
        AllocationFailedError
            When every allocator in the chain fails; the exception
            carries the per-stage events.
        """
        from repro.core.batch import drive

        return drive(self.allocate_iter(
            problem, slot=slot, inject_nonconvergence=inject_nonconvergence))

    def allocate_iter(self, problem: SlotProblem, *, slot: int,
                      inject_nonconvergence: bool = False):
        """Generator form of :meth:`allocate` (lockstep batching).

        Allocators exposing ``allocate_iter`` (the proposed schemes) are
        driven through the generator protocol so their solves can be
        batched; anything else -- heuristics, test doubles -- is called
        inline.  Failure handling is unchanged: exceptions raised while
        a delegated generator runs propagate through ``yield from`` into
        the same ``except`` clauses as the direct call.
        """
        events: List[DegradationEvent] = []
        last_index = len(self.allocators) - 1
        for index, (name, allocator) in enumerate(self.allocators):
            next_name = (self.allocators[index + 1][0]
                         if index < last_index else "none")
            if inject_nonconvergence and index == 0:
                events.append(DegradationEvent(
                    slot=slot, cause="injected-nonconvergence",
                    allocator=name, fallback=next_name,
                    detail="fault harness forced non-convergence"))
                _note_degradation(events[-1])
                continue
            try:
                if hasattr(allocator, "allocate_iter"):
                    allocation = yield from allocator.allocate_iter(problem)
                else:
                    allocation = allocator.allocate(problem)
            except ConvergenceError as exc:
                events.append(DegradationEvent(
                    slot=slot, cause="convergence", allocator=name,
                    fallback=next_name, residual=exc.residual,
                    detail=str(exc)))
                _note_degradation(events[-1])
                continue
            except ReproError as exc:
                events.append(DegradationEvent(
                    slot=slot, cause="allocator-error", allocator=name,
                    fallback=next_name, detail=f"{type(exc).__name__}: {exc}"))
                _note_degradation(events[-1])
                continue
            cause = check_allocation(problem, allocation)
            if cause is None:
                return allocation, events
            events.append(DegradationEvent(
                slot=slot, cause=cause, allocator=name, fallback=next_name,
                detail=f"allocation rejected by validation ({cause})"))
            _note_degradation(events[-1])
        logger.error("slot %d: all %d allocators failed", slot,
                     len(self.allocators))
        raise AllocationFailedError(
            f"all {len(self.allocators)} allocators failed on slot {slot} "
            f"({', '.join(f'{e.allocator}: {e.cause}' for e in events)})",
            events=events)
