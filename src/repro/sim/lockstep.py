"""Cross-replication lockstep batching of the allocation phase.

The dual solves inside one slot are inherently sequential (each greedy
``Q(c)`` evaluation warm-starts from the previous one), but *different
replications* are completely independent, whatever their sweep point or
scheme, and their slot problems stack by shape.  This module runs B
engines -- any mix of sweep points and batchable schemes -- through
their slot generators
(:meth:`SimulationEngine._step_iter`) as one event loop with continuous
batching: each :class:`~repro.core.batch.SolveRequest` a member yields
joins the running stack for its shape
(:class:`~repro.core.batch.RunningStack`), and every call to the
stacked kernel (:func:`~repro.core.batch.solve_requests`) resumes that
stack until a row freezes.  Only the members whose rows froze are
answered and advanced -- flip-polish, their next ``Q(c)``, or their
next slot -- and their next requests refill the freed rows.  There is
no round or slot barrier: a member leaves the stack only when its last
slot ends or it escapes, and its result is reported at that moment.

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
suspension time beyond its fair share of the kernel -- an equal share
of every resumption its row was in flight for (timings are explicitly
excluded from serialized results, so this is cosmetic).
"""

from __future__ import annotations

import time
from dataclasses import replace
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.batch import (
    RunningStack,
    SolveRequest,
    answer_request,
    request_shape,
    solve_requests,
)
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
from repro.utils.errors import ReproError
from repro.utils.rng import derive_seed

logger = get_logger(__name__)

#: Largest lockstep formation.  The stacked kernel's per-iteration cost
#: is nearly flat in B, so a formation's stacked iterations are those of
#: its busiest member whatever its width; what grows with B is memory,
#: one live engine per unfinished member.  64 holds a default-size figure
#: (10 runs at each of 5 points) in one formation; on ``fig6a --runs 20
#: --gops 1`` it costs 53.4 MB peak RSS against 49.7 MB at 32 and 55.8 MB
#: uncapped.
MAX_BATCH = 64


def lockstep_eligible() -> bool:
    """Whether this process may batch replications at all.

    Batching stands down under an active tracer -- span nesting assumes
    one replication at a time.
    """
    return active_tracer() is None


def batchable_schemes() -> Tuple[str, ...]:
    """Registered schemes carrying the ``batchable`` capability."""
    return tuple(info.name for info in scheme_registry() if info.batchable)


def cell_batchable(cell: Cell) -> bool:
    """Whether ``cell`` may join a lockstep formation.

    Its scheme must carry the ``batchable`` capability, its config a
    root seed (per-member seeds derive deterministically), and no fault
    plan (fault hooks are stateful per replication).
    """
    registry = scheme_registry()
    return (cell.scheme in registry
            and registry.get(cell.scheme).batchable
            and cell.config.fault_plan is None
            and cell.config.seed is not None)


def plan_batch_groups(cells: Sequence[Cell]) -> List[List[Cell]]:
    """Split cells into lockstep formations and singleton groups.

    Every batchable cell joins a formation, whatever its sweep point or
    scheme: each member builds its engine from its own config, its
    requests join the running stack of their shape, and rows never
    interact.  Formations fill in plan order up to :data:`MAX_BATCH`
    members, and each stands where its first member stood.  Every other
    cell is a singleton group, in plan order.
    """
    groups: List[List[Cell]] = []
    formation: Optional[List[Cell]] = None
    for cell in cells:
        if not cell_batchable(cell):
            groups.append([cell])
            continue
        if formation is None or len(formation) == MAX_BATCH:
            formation = []
            groups.append(formation)
        formation.append(cell)
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

    __slots__ = ("cell", "registry", "engine", "gen", "slots_left",
                 "request_time", "share_mark", "busy_seconds", "overcharge",
                 "error")

    def __init__(self, cell: Cell, registry: Optional[MetricsRegistry],
                 engine: SimulationEngine) -> None:
        self.cell = cell
        self.registry = registry
        self.engine = engine
        self.gen = None
        self.slots_left = engine.config.n_slots
        self.request_time = 0.0
        self.share_mark = 0.0
        self.busy_seconds = 0.0
        self.overcharge = 0.0
        self.error: Optional[ReproError] = None

    def advance(self, payload=None) -> Optional[SolveRequest]:
        """Drive the member to its next solve request, under its registry.

        ``payload`` is ``None`` to start, a
        :class:`~repro.core.dual.DualSolution` to answer the pending
        request, or a :class:`ReproError` to raise *at the yield point*
        -- exactly where the inline solver would have raised -- so the
        engine's own degradation paths (fallback chain) run unchanged.
        A slot that ends starts the next one.  Returns ``None`` once the
        last slot has ended, or when the member failed (``error``).
        """
        start = time.perf_counter()
        request = None
        try:
            with _ScopedRegistry(self.registry):
                while request is None and (self.gen is not None
                                           or self.slots_left):
                    try:
                        if self.gen is None:
                            self.gen = self.engine._step_iter(None)
                            request = self.gen.send(None)
                        elif isinstance(payload, ReproError):
                            request = self.gen.throw(payload)
                        else:
                            request = self.gen.send(payload)
                    except StopIteration:
                        self.gen = None
                        self.slots_left -= 1
                        payload = None
        except ReproError as exc:
            self.gen = None
            self.error = exc
            request = None
        self.request_time = time.perf_counter()
        self.busy_seconds += self.request_time - start
        return request


def run_cells_lockstep(
        cells: Sequence[Cell],
        fallback: Callable[[Cell], Tuple[str, object, float]],
) -> Iterator[Tuple[str, object, float]]:
    """Execute a formation as one event loop; yield ``(key, result, seconds)``.

    Yields what ``_execute_cell`` would produce for each cell, each
    member's as soon as its last slot ends, so the caller checkpoints
    and reports cell by cell.  Members that fail anywhere -- scenario
    build, any slot -- are handed to ``fallback`` (the per-cell path)
    once the formation ends, so isolation and retry semantics are
    byte-for-byte the unbatched ones.
    """
    observing = metrics_enabled()
    members: List[_LockstepMember] = []
    escaped: List[Cell] = []
    refused = 0

    for cell in cells:
        seed = derive_seed(cell.config.seed, cell.run_index, 0)
        seeded = cell.config.with_seed(seed)
        registry = MetricsRegistry() if observing else None
        start = time.perf_counter()
        try:
            with _ScopedRegistry(registry):
                engine = SimulationEngine(seeded)
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

    stacks: Dict[tuple, RunningStack] = {}

    def deliver(member: _LockstepMember, payload) -> bool:
        """Advance ``member``; its next request joins its shape's stack.

        Returns whether the member has just run its last slot.
        """
        request = member.advance(payload)
        if request is not None:
            shape = request_shape(request)
            if shape not in stacks:
                stacks[shape] = RunningStack()
            stack = stacks[shape]
            member.share_mark = stack.row_seconds
            stack.join(request, member)
            return False
        if member.error is not None:
            escaped.append(member.cell)
            return False
        return True

    def finish(member: _LockstepMember) -> Tuple[str, object, float]:
        """The finished member's ``(key, result, seconds)``; frees its engine."""
        start = time.perf_counter()
        engine = member.engine
        engine.phase_seconds["allocation"] = max(
            0.0, engine.phase_seconds["allocation"] - member.overcharge)
        with _ScopedRegistry(member.registry):
            metrics = engine.collect_metrics()
        if observing:
            metrics = replace(metrics,
                              obs_snapshot=member.registry.snapshot())
        member.engine = None
        member.busy_seconds += time.perf_counter() - start
        return member.cell.key, metrics, member.busy_seconds

    for member in members:
        if deliver(member, None):
            yield finish(member)
    resumptions = 0
    batched_solves = 0
    while True:
        busy = [stack for stack in stacks.values() if stack.width]
        if not busy:
            break
        for stack in busy:
            resumptions += 1
            batched_solves += len(stack)
            try:
                answers = solve_requests(stack)
            except ReproError:
                # The stacked kernel refused; answer every request of the
                # stack alone (booking to its member's registry) and
                # deliver per-member results or exceptions, exactly as
                # the unbatched path would.
                answers = []
                for request, member in stack.drain():
                    try:
                        answers.append((member, answer_request(request)))
                    except ReproError as exc:
                        answers.append((member, exc))
            for member, answer in answers:
                share = stack.row_seconds - member.share_mark
                member.busy_seconds += share
                # Refund the suspension: wall time since this member
                # yielded, minus its fair share of the kernel.
                member.overcharge += max(
                    0.0, (time.perf_counter() - member.request_time) - share)
                if deliver(member, answer):
                    yield finish(member)

    if observing:
        registry = global_registry()
        registry.counter("repro_lockstep_groups_total").inc()
        registry.counter("repro_lockstep_batch_members_total").inc(
            len(members))
        registry.counter("repro_lockstep_rounds_total").inc(resumptions)
        registry.counter("repro_lockstep_batched_solves_total").inc(
            batched_solves)
        registry.counter("repro_lockstep_stacked_iterations_total").inc(
            sum(stack.iterations for stack in stacks.values()))
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
        yield fallback(cell)
