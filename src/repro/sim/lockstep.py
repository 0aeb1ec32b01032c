"""Cross-replication lockstep batching of the allocation phase.

The dual solves inside one slot are inherently sequential (each greedy
``Q(c)`` evaluation warm-starts from the previous one), but *different
replications* of the same scenario are completely independent -- and,
sharing one :class:`~repro.sim.build.BuiltScenario`, they produce slot
problems of identical shape.  This module advances B sibling engines in
lockstep through their slot generators (:meth:`SimulationEngine._step_iter`),
collects the :class:`~repro.core.batch.SolveRequest` each yields, and
answers a whole round with one call to the stacked kernel
(:func:`~repro.core.batch.solve_requests`).

Correctness contract
--------------------
Each member's computation is *exactly* the serial one: the generator
protocol fixes the order of its solves, the kernel answers each request
bit-identically to the single-request solver, every engine advance runs under
the member's own private metrics registry (so obs snapshots match the
unbatched ``execute_run``), and a member that raises a
:class:`~repro.utils.errors.ReproError` is dropped from the formation
and re-run standalone through the normal per-cell path -- whose retry
semantics then apply verbatim.  Phase timings are the only telemetry
that needs repair: a suspended member's wall clock keeps running while
its batch mates compute, so the driver refunds each member the
suspension time beyond its fair share of the kernel (timings are
explicitly excluded from serialized results, so this is cosmetic).
"""

from __future__ import annotations

import time
from typing import Callable, List, Optional, Sequence, Tuple

from repro.core.batch import answer_request, solve_requests
from repro.exec.plan import Cell
from repro.obs.logging import get_logger
from repro.obs.metrics import (
    MetricsRegistry,
    global_registry,
    metrics_enabled,
    set_global_registry,
)
from repro.obs.trace import active_tracer
from repro.registry.schemes import scheme_registry
from repro.sim.engine import SimulationEngine
from repro.store.scenario_store import built_for
from repro.utils.errors import ReproError
from repro.utils.rng import derive_seed

logger = get_logger(__name__)

#: Largest lockstep formation.  The stacked kernel's per-iteration cost
#: is nearly flat in B, but memory for B live engines adds up and wider
#: groups drag more members through the slowest member's convergence
#: tail before the remnant drops to the single-member loop.
MAX_BATCH = 32

#: Advance outcomes.
_PENDING, _DONE, _FAILED = "pending", "done", "failed"


def lockstep_eligible() -> bool:
    """Whether this process may batch replications at all.

    Batching stands down under an active tracer -- span nesting assumes
    one replication at a time.
    """
    return active_tracer() is None


def batchable_schemes() -> Tuple[str, ...]:
    """Registered schemes carrying the ``batchable`` capability."""
    return tuple(info.name for info in scheme_registry() if info.batchable)


def _cell_batchable(cell: Cell) -> bool:
    registry = scheme_registry()
    return (cell.scheme in registry
            and registry.get(cell.scheme).batchable
            and cell.config.fault_plan is None
            and cell.config.seed is not None)


def plan_batch_groups(cells: Sequence[Cell]) -> List[List[Cell]]:
    """Split cells into consecutive runs that may share a formation.

    Cells group only when they are replications of the *same* derived
    config (object identity -- the planner shares one config across a
    scheme's replications, and pickling a chunk preserves the sharing),
    use a batchable scheme, carry a root seed (per-member seeds derive
    deterministically), and have no fault plan (fault hooks are stateful
    per replication).  Unbatchable cells come back as singleton groups,
    preserving plan order.
    """
    groups: List[List[Cell]] = []
    current: List[Cell] = []
    for cell in cells:
        if (current and len(current) < MAX_BATCH
                and _cell_batchable(cell)
                and _cell_batchable(current[-1])
                and cell.config is current[-1].config):
            current.append(cell)
        else:
            if current:
                groups.append(current)
            current = [cell]
    if current:
        groups.append(current)
    return groups


class _ScopedRegistry:
    """Swap the global registry for one member's advance (or no-op)."""

    def __init__(self, registry: Optional[MetricsRegistry]) -> None:
        self.registry = registry
        self._previous: Optional[MetricsRegistry] = None

    def __enter__(self) -> None:
        if self.registry is not None:
            self._previous = set_global_registry(self.registry)

    def __exit__(self, *exc_info) -> None:
        if self.registry is not None:
            set_global_registry(self._previous)


class _LockstepMember:
    """One replication advancing through the formation."""

    __slots__ = ("cell", "registry", "engine", "gen", "request",
                 "request_time", "busy_seconds", "overcharge", "error")

    def __init__(self, cell: Cell, registry: Optional[MetricsRegistry],
                 engine: SimulationEngine) -> None:
        self.cell = cell
        self.registry = registry
        self.engine = engine
        self.gen = None
        self.request = None
        self.request_time = 0.0
        self.busy_seconds = 0.0
        self.overcharge = 0.0
        self.error: Optional[ReproError] = None

    def advance(self, payload=None) -> str:
        """Drive the slot generator one hop under the member registry.

        ``payload`` is ``None`` to start a fresh slot, a
        :class:`~repro.core.dual.DualSolution` to answer the pending
        request, or a :class:`ReproError` to raise *at the yield point*
        -- exactly where the inline solver would have raised -- so the
        engine's own degradation paths (fallback chain) run unchanged.
        """
        start = time.perf_counter()
        try:
            with _ScopedRegistry(self.registry):
                if self.gen is None:
                    self.gen = self.engine._step_iter(None)
                    self.request = self.gen.send(None)
                elif isinstance(payload, ReproError):
                    self.request = self.gen.throw(payload)
                else:
                    self.request = self.gen.send(payload)
            self.request_time = time.perf_counter()
            self.busy_seconds += self.request_time - start
            return _PENDING
        except StopIteration:
            self.gen = None
            self.request = None
            self.busy_seconds += time.perf_counter() - start
            return _DONE
        except ReproError as exc:
            self.gen = None
            self.request = None
            self.busy_seconds += time.perf_counter() - start
            self.error = exc
            return _FAILED


def run_cells_lockstep(
        cells: Sequence[Cell],
        fallback: Callable[[Cell], Tuple[str, object, float]],
) -> List[Tuple[str, object, float]]:
    """Execute a batch group in lockstep; return ``(key, result, seconds)``.

    Mirrors what ``_execute_cell`` would produce for each cell, in cell
    order.  Members that fail anywhere -- scenario build, any slot --
    are handed to ``fallback`` (the per-cell path), so isolation and
    retry semantics are byte-for-byte the unbatched ones.
    """
    cells = list(cells)
    observing = metrics_enabled()
    config = cells[0].config
    members: List[_LockstepMember] = []
    escaped: List[Cell] = []
    refused = 0

    for cell in cells:
        seed = derive_seed(config.seed, cell.run_index, 0)
        seeded = config.with_seed(seed)
        registry = MetricsRegistry() if observing else None
        start = time.perf_counter()
        try:
            with _ScopedRegistry(registry):
                engine = SimulationEngine(seeded, built=built_for(seeded))
        except ReproError:
            # Build failed; the per-cell path will fail (and retry)
            # identically on its own clock.
            escaped.append(cell)
            continue
        if not hasattr(engine.allocator, "allocate_iter"):
            # The scheme registered itself batchable but its allocator
            # cannot yield solve requests; refuse the claim and run the
            # cell through the inline per-cell path instead of crashing
            # the formation mid-slot.
            refused += 1
            escaped.append(cell)
            continue
        member = _LockstepMember(cell, registry, engine)
        member.busy_seconds += time.perf_counter() - start
        members.append(member)

    live = list(members)
    rounds = 0
    batched_solves = 0
    for _ in range(config.n_slots):
        if not live:
            break
        pending: List[_LockstepMember] = []
        for member in list(live):
            status = member.advance(None)
            if status == _PENDING:
                pending.append(member)
            elif status == _FAILED:
                live.remove(member)
                escaped.append(member.cell)
        while pending:
            requests = [member.request for member in pending]
            kernel_start = time.perf_counter()
            try:
                answers = solve_requests(requests)
            except ReproError:
                # The stacked kernel refused the round; answer each
                # request alone (booking to its member's registry) and
                # deliver per-member results or exceptions, exactly as
                # the unbatched path would.
                answers = []
                for request in requests:
                    try:
                        answers.append(answer_request(request))
                    except ReproError as exc:
                        answers.append(exc)
            share = (time.perf_counter() - kernel_start) / len(pending)
            rounds += 1
            batched_solves += len(pending)
            next_pending: List[_LockstepMember] = []
            for member, answer in zip(pending, answers):
                member.busy_seconds += share
                # Refund the suspension: wall time since this member
                # yielded, minus its fair share of the kernel round.
                member.overcharge += max(
                    0.0, (time.perf_counter() - member.request_time) - share)
                status = member.advance(answer)
                if status == _PENDING:
                    next_pending.append(member)
                elif status == _FAILED:
                    live.remove(member)
                    escaped.append(member.cell)
            pending = next_pending

    results = {}
    for member in live:
        start = time.perf_counter()
        engine = member.engine
        engine.phase_seconds["allocation"] = max(
            0.0, engine.phase_seconds["allocation"] - member.overcharge)
        with _ScopedRegistry(member.registry):
            metrics = engine.collect_metrics()
        if observing:
            from dataclasses import replace

            metrics = replace(metrics,
                              obs_snapshot=member.registry.snapshot())
        member.busy_seconds += time.perf_counter() - start
        results[member.cell.key] = (member.cell.key, metrics,
                                    member.busy_seconds)

    if observing:
        registry = global_registry()
        registry.counter("repro_lockstep_groups_total").inc()
        registry.counter("repro_lockstep_batch_members_total").inc(
            len(members))
        registry.counter("repro_lockstep_rounds_total").inc(rounds)
        registry.counter("repro_lockstep_batched_solves_total").inc(
            batched_solves)
        if refused:
            registry.counter("repro_lockstep_refused_total").inc(refused)
        if escaped:
            registry.counter("repro_lockstep_escapes_total").inc(
                len(escaped))
    if escaped:
        logger.warning("lockstep group: %d member(s) escaped to the "
                       "per-cell path: %s", len(escaped),
                       ", ".join(cell.key for cell in escaped))
    for cell in escaped:
        results[cell.key] = fallback(cell)
    return [results[cell.key] for cell in cells]
