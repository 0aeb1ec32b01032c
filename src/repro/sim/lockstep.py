"""Cross-replication lockstep batching of the allocation phase.

The dual solves inside one slot are inherently sequential (each greedy
``Q(c)`` evaluation warm-starts from the previous one), but *different
replications* are completely independent, whatever their sweep point,
scheme or fault plan, and their slot problems stack by shape.  This
module runs B engines -- any mix of sweep points, schemes and fault
plans -- through their slot
generators (:meth:`SimulationEngine._step_iter`) as one event loop
with continuous batching: each :class:`~repro.core.batch.SolveRequest`
a member yields joins the running stack for its shape
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
the member's own private metrics registry and span stack (so obs
snapshots and traces match the unbatched ``execute_run``), and a member
that raises a :class:`~repro.utils.errors.ReproError` is dropped from
the formation and re-run standalone through the normal per-cell path --
whose retry semantics then apply verbatim.

Telemetry
---------
A traced member writes what the per-cell path writes: a
``replication`` span, its ``slot`` spans, and with ``--profile`` its
``phase`` spans and one ``dual-solve`` span per answered request, all
nested under the member's own spans.  Every duration is the member's
own: a suspended member's wall clock keeps running while its batch
mates compute, so the driver refunds each member the suspension time
beyond its share of the kernel -- an equal share of every resumption
its row was in flight for -- at the engine's next phase mark
(:meth:`SimulationEngine.refund`).  A ``dual-solve`` span lasts the
row's share, and the ``replication`` span the member's reported
seconds.  The formation's own ``repro_lockstep_*`` counters are booked
on the process's registry as they become known, before the member
result that follows them is yielded.
"""

from __future__ import annotations

import time
from dataclasses import replace
from itertools import takewhile
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.batch import (
    RunningStack,
    SolveRequest,
    answer_request,
    request_shape,
    solve_requests,
)
from repro.exec.plan import Cell
from repro.exec.supervisor import stop_before
from repro.obs.logging import get_logger
from repro.obs.metrics import (
    MetricsRegistry,
    global_registry,
    metrics_enabled,
    set_global_registry,
)
from repro.obs.trace import SpanTracer, active_tracer
from repro.sim.engine import SimulationEngine
from repro.sim.runner import attempt_config
from repro.utils.errors import ReproError

logger = get_logger(__name__)

#: Most live members of a lockstep formation (engines built and
#: suspended on a solve request): a cap on its memory, not its size.
#: The stacked kernel's per-iteration cost is nearly flat in its width,
#: so what grows with the width is memory, one engine per live member.
#: 64 holds a default-size figure's ``proposed-fast`` rows (10 runs at
#: each of 5 points) live at once; on ``fig6a --runs 20 --gops 1`` it
#: costs 53.3 MB peak RSS against 50.1 MB at 32.
MAX_BATCH = 64


def plan_batch_groups(cells: Sequence[Cell]) -> List[List[Cell]]:
    """Every cell of a task as one lockstep formation, in plan order.

    Each member builds its engine from its own config, its fault plan
    included, its requests join the running stack of their shape, and
    rows never interact, so any mix of cells forms one formation.
    """
    return [list(cells)] if cells else []


class _MemberScope:
    """Swap one member's metrics registry and span stack in (or no-op)."""

    __slots__ = ("registry", "tracer", "stack", "_registry", "_stack")

    def __init__(self, registry: Optional[MetricsRegistry],
                 tracer: Optional[SpanTracer]) -> None:
        self.registry = registry
        self.tracer = tracer
        #: The member's open spans, under the formation's own.
        self.stack = tracer.open_spans() if tracer is not None else None
        self._registry: Optional[MetricsRegistry] = None
        self._stack: Optional[List[int]] = None

    def __enter__(self) -> None:
        if self.registry is not None:
            self._registry = set_global_registry(self.registry)
        if self.tracer is not None:
            self._stack = self.tracer.swap_stack(self.stack)

    def __exit__(self, *exc_info) -> None:
        if self.tracer is not None:
            self.tracer.swap_stack(self._stack)
        if self.registry is not None:
            set_global_registry(self._registry)


class _LockstepMember:
    """One replication advancing through the formation."""

    __slots__ = ("cell", "scope", "span", "engine", "gen", "slots_left",
                 "request_time", "share_mark", "busy_seconds", "error")

    def __init__(self, cell: Cell, scope: _MemberScope) -> None:
        self.cell = cell
        self.scope = scope
        self.span = None
        self.engine: Optional[SimulationEngine] = None
        self.gen = None
        self.slots_left = 0
        self.request_time = 0.0
        self.share_mark = 0.0
        self.busy_seconds = 0.0
        self.error: Optional[ReproError] = None

    def build(self) -> bool:
        """Open the replication span and build the engine, as attempt 0
        of the per-cell path would; return whether the build succeeded."""
        start = time.perf_counter()
        config = attempt_config(self.cell.config, self.cell.run_index, 0)
        tracer = self.scope.tracer
        try:
            with self.scope:
                if tracer is not None:
                    self.span = tracer.begin(
                        "replication", kind="replication",
                        run=self.cell.run_index, attempt=0, seed=config.seed,
                        scheme=config.scheme)
                self.engine = SimulationEngine(config)
        except ReproError:
            return False
        finally:
            self.busy_seconds += time.perf_counter() - start
        self.slots_left = self.engine.config.n_slots
        return True

    def advance(self, payload=None, share: float = 0.0
                ) -> Optional[SolveRequest]:
        """Drive the member to its next solve request, in its scope.

        ``payload`` is ``None`` to start, a
        :class:`~repro.core.dual.DualSolution` to answer the pending
        request, or a :class:`ReproError` to raise *at the yield point*
        -- exactly where the inline solver would have raised -- so the
        engine's own degradation paths (fallback chain) run unchanged.
        Of the time since the member yielded, only ``share`` (its share
        of the kernel) is its own; the rest is refunded.  A slot that
        ends starts the next one.  Returns ``None`` once the last slot
        has ended, or when the member failed (``error``).
        """
        start = time.perf_counter()
        if self.gen is not None:
            self.busy_seconds += share
            self.engine.refund(max(0.0, start - self.request_time - share))
        request = None
        try:
            with self.scope:
                while request is None and (self.gen is not None
                                           or self.slots_left):
                    try:
                        if self.gen is None:
                            self.gen = self.engine._step_iter()
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

    def record_solve(self, solution, share: float) -> None:
        """Trace a kernel answer as the member's ``dual-solve``, as long
        as its ``share`` of the kernel (when profiling)."""
        tracer = self.scope.tracer
        if tracer is not None and tracer.collect_phases:
            with self.scope:
                tracer.emit_span("dual-solve", kind="solver", seconds=share,
                                 iterations=solution.iterations,
                                 converged=solution.converged,
                                 stations=len(solution.multipliers))

    def close(self, **attrs) -> None:
        """Drop the engine; close the open slot span, and the replication
        span with ``attrs`` (``escaped=True`` on an escape)."""
        if self.span is not None:
            with self.scope:
                if self.gen is not None:
                    self.gen.close()
                self.scope.tracer.end(self.span, self.busy_seconds, **attrs)
        self.engine = None
        self.gen = None

    def finish(self) -> Tuple[str, object, float]:
        """The member's ``(key, result, seconds)``; frees its engine."""
        start = time.perf_counter()
        with self.scope:
            metrics = self.engine.collect_metrics()
        registry = self.scope.registry
        if registry is not None:
            metrics = replace(metrics, obs_snapshot=registry.snapshot())
        self.engine = None
        self.busy_seconds += time.perf_counter() - start
        if self.span is not None:
            with self.scope:
                self.scope.tracer.end(self.span, self.busy_seconds)
        return self.cell.key, metrics, self.busy_seconds


def _book(name: str, amount: int = 1) -> None:
    """Add to one of the formation's counters, on the process's books."""
    global_registry().counter(name).inc(amount)


def run_cells_lockstep(
        cells: Sequence[Cell],
        fallback: Callable[[Cell], Tuple[str, object, float]],
) -> Iterator[Tuple[str, object, float]]:
    """Execute a formation as one event loop; yield ``(key, result, seconds)``.

    Yields what ``_execute_cell`` would produce for each cell, each
    member's as soon as its last slot ends, so the caller checkpoints
    and reports cell by cell.  Cells are admitted in order while fewer
    than :data:`MAX_BATCH` members are live, each built and run to its
    first solve request; one that yields none (a heuristic, graph
    colouring) runs every slot, and is yielded and freed before the next
    is built.  A shutdown drain ends admission; live members run on.
    Members that fail anywhere -- scenario build, any slot -- are handed
    to ``fallback`` (the per-cell path) once the formation ends, so
    isolation and retry semantics are byte-for-byte the unbatched ones.
    """
    observing = metrics_enabled()
    tracer = active_tracer()
    queue = takewhile(lambda cell: not stop_before(cell.key), cells)
    live: List[_LockstepMember] = []
    escaped: List[Cell] = []
    stacks: Dict[tuple, RunningStack] = {}
    if observing:
        for name, amount in (("groups", 1), ("batch_members", 0),
                             ("rounds", 0), ("batched_solves", 0),
                             ("stacked_iterations", 0)):
            _book(f"repro_lockstep_{name}_total", amount)

    def leave(member: _LockstepMember) -> None:
        """Drop a failed member; the per-cell path runs it later."""
        member.close(escaped=True)
        escaped.append(member.cell)
        if observing:
            _book("repro_lockstep_escapes_total")

    def deliver(member: _LockstepMember, payload, share: float = 0.0
                ) -> bool:
        """Advance ``member``; its next request joins its shape's stack.

        Returns whether the member has just run its last slot.
        """
        request = member.advance(payload, share)
        if request is not None:
            shape = request_shape(request)
            if shape not in stacks:
                stacks[shape] = RunningStack()
            stack = stacks[shape]
            member.share_mark = stack.row_seconds
            stack.join(request, member)
            return False
        live.remove(member)
        if member.error is not None:
            leave(member)
            return False
        return True

    def admit() -> Iterator[Tuple[str, object, float]]:
        while len(live) < MAX_BATCH:
            cell = next(queue, None)
            if cell is None:
                return
            member = _LockstepMember(cell, _MemberScope(
                MetricsRegistry() if observing else None, tracer))
            if not member.build():
                # The per-cell path will fail (and retry) identically
                # on its own clock.
                leave(member)
                continue
            if observing:
                _book("repro_lockstep_batch_members_total")
            live.append(member)
            if deliver(member, None):
                yield member.finish()

    try:
        yield from admit()
        while live:
            for stack in [stack for stack in stacks.values() if stack.width]:
                joining = len(stack)
                iterations = stack.iterations
                try:
                    answers = solve_requests(stack)
                    solved = True
                except ReproError:
                    # The stacked kernel raised; answer every request of the
                    # stack alone, in its member's scope (booking and tracing
                    # to the member), and deliver per-member results or
                    # exceptions, exactly as the unbatched path would.
                    answers = []
                    solved = False
                    for request, member in stack.drain():
                        try:
                            with member.scope:
                                answer = answer_request(request)
                        except ReproError as exc:
                            answer = exc
                        answers.append((member, answer))
                if observing:
                    _book("repro_lockstep_rounds_total")
                    _book("repro_lockstep_batched_solves_total", joining)
                    _book("repro_lockstep_stacked_iterations_total",
                          stack.iterations - iterations)
                for member, answer in answers:
                    share = stack.row_seconds - member.share_mark
                    if solved:
                        member.record_solve(answer, share)
                    if deliver(member, answer, share):
                        yield member.finish()
                    yield from admit()
    finally:
        # Stopped early (the caller quit, or an error escaped): close
        # the spans of the members still running, as the per-cell
        # path's ``with`` blocks close theirs.
        for member in live:
            member.close()

    if escaped:
        logger.warning("lockstep group: %d member(s) escaped to the "
                       "per-cell path: %s", len(escaped),
                       ", ".join(cell.key for cell in escaped))
    for cell in escaped:
        yield fallback(cell)
