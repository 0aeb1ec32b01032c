"""Scoping of process-global solver caches to the scenario in flight.

Two hot-path caches are process-global by design -- the solve-request
solver instances (:mod:`repro.core.batch`) and the video R-D
slot-increment table (:mod:`repro.video.sequences`).  Both are keyed by
*value* (solver parameters, sequence name), so stale entries
can never corrupt results -- but a long-lived worker (the
:class:`~repro.exec.executor.ParallelExecutor` keeps one process per
job slot for the whole campaign) walking a multi-scenario sweep
accumulates entries for every scenario it ever touched and its memory
grows without bound.

:func:`scope_to` is the fix: executors call it at cell dispatch with the
cell's scenario identity (its ``scenario_ref`` content hash, or a
config-instance token when the store is off); when the identity changes,
every solver cache is dropped.  Within one scenario -- the common case,
including every replication of a campaign -- the caches persist exactly
as before.  The compiled slot problem is not among them: it lives on its
slot's columns (:func:`repro.core.reference.compile_slot_problem`) and
goes with the slot.
"""

from __future__ import annotations

from typing import Optional

#: Identity of the scenario the caches currently serve.
_SCOPE: Optional[object] = None


def clear_solver_caches() -> None:
    """Drop every process-global solver/table cache unconditionally."""
    from repro.core import batch
    from repro.video import sequences

    batch._solver_for.cache_clear()
    sequences.reset_rd_table()


def scope_to(token: object) -> bool:
    """Scope the solver caches to ``token``; clear them on a change.

    Returns ``True`` when the caches were cleared (the scope changed).
    Tokens are compared by equality: a scenario hash string keeps one
    scenario's replications warm across cells, workers, and campaigns,
    while distinct scenarios evict each other on transition.
    """
    global _SCOPE
    if token == _SCOPE:
        return False
    clear_solver_caches()
    _SCOPE = token
    return True
