"""Execution strategies for planned Monte-Carlo cells.

An :class:`Executor` turns a sequence of :class:`~repro.exec.plan.Cell`
work items into a stream of :class:`CellOutcome` records.  Outcomes are
yielded *as they complete* (completion order is unspecified for the
parallel executor); callers assemble results by cell key, never by
arrival order, which is what makes parallel runs bit-identical to serial
ones.

Both executors run cells through one body, :func:`_run_cells`, so
the cells of a task batch in lockstep, whatever their sweep point or
scheme, whichever executor runs them.  Isolation semantics are inherited from
:func:`repro.sim.runner.execute_run`: a replication that raises a
:class:`~repro.utils.errors.ReproError` (after its fresh-seed retry) is
returned as a :class:`~repro.sim.metrics.FailedRun`, and programming
errors propagate unchanged.  The parallel executor adds the failures a
replication cannot handle for itself: a worker *process* that dies
(segfault, OOM kill) or, with ``cell_timeout`` set, overruns its budget
is replaced, and the cells it had not yet reported are requeued as solo
tasks.  A solo cell that kills its worker again is recorded as a
``FailedRun`` with ``error_type="WorkerCrashed"``; one that overruns is
recorded as ``CellTimedOut`` at once.
"""

from __future__ import annotations

import math
import os
import signal
import time
from abc import ABC, abstractmethod
from collections import deque
from dataclasses import dataclass, field
from multiprocessing import get_context
from multiprocessing.connection import wait as _connection_wait
from typing import (Deque, Dict, Iterator, List, Mapping, Optional, Sequence,
                    Tuple, Union)

from repro.exec.plan import Cell, ensure_picklable
from repro.exec.supervisor import (
    MAX_DISPATCH_ATTEMPTS,
    ShutdownCoordinator,
    active_shutdown,
    apply_backoff,
    stop_before,
)
from repro.obs.logging import get_logger
from repro.obs.metrics import (
    MetricsRegistry,
    global_registry,
    metrics_enabled,
    set_global_registry,
)
from repro.obs.trace import active_tracer
from repro.sim import runner as _runner
from repro.sim.metrics import FailedRun, RunMetrics
from repro.utils.errors import ConfigurationError, SweepDeadlineExceeded

logger = get_logger(__name__)

#: Chunks per worker the default chunk size aims for; small enough to
#: load-balance scheme-dependent cell costs, large enough to amortise
#: per-task dispatch overhead.
_CHUNKS_PER_WORKER = 4

#: Reports a worker may have unacknowledged and still admit a cell, so
#: it learns of the parent's drain within this many cells.
_MAX_UNACKED = 2

#: Watchdog wake-up interval while a budget is armed: the granularity
#: at which ``cell_timeout``/``deadline`` expiry is noticed.
_POLL_INTERVAL = 0.05

#: Seconds an idle worker gets to exit on its own at teardown (so its
#: exit hooks run) before it is killed.
_EXIT_GRACE = 5.0


@dataclass(frozen=True)
class CellOutcome:
    """One completed cell: its work item, result, and wall-clock cost.

    Attributes
    ----------
    cell:
        The work item that was executed.
    result:
        :class:`RunMetrics` for a surviving replication or
        :class:`FailedRun` for one lost after its retry.
    seconds:
        Wall-clock execution time of the cell, measured inside the
        process that ran it (so pool queueing time is excluded).
    worker_snapshot:
        Metrics snapshot of what the worker process booked outside any
        replication since its previous report -- a lockstep formation's
        own counters -- folded in by the parent with the cell's
        (empty when the cell ran in the parent or metrics are off).
    """

    cell: Cell
    result: Union[RunMetrics, FailedRun]
    seconds: float
    worker_snapshot: Mapping[str, object] = field(default_factory=dict)


def _execute_cell(cell: Cell) -> Tuple[str, Union[RunMetrics, FailedRun], float]:
    """Run one cell on the per-cell path; return ``(key, result, seconds)``.

    The path of fault-plan cells, and of a lockstep formation's escapes.
    """
    start = time.perf_counter()
    metrics, failure = _runner.execute_run(cell.config, cell.run_index)
    result = metrics if metrics is not None else failure
    return cell.key, result, time.perf_counter() - start


def _run_cells(cells: Sequence[Cell]
               ) -> Iterator[Tuple[str, Union[RunMetrics, FailedRun], float]]:
    """Execute cells: one lockstep formation, and fault-plan cells alone.

    The one execution body of both executors: every cell without a fault
    plan runs in lockstep through the stacked allocation kernel
    (:mod:`repro.sim.lockstep`), whatever its sweep point or scheme.
    Yields ``(key, result, seconds)`` for each cell as soon as it is
    known, so the order is not the cell order, and starts no cell once a
    shutdown drain is requested.
    """
    from repro.sim import lockstep

    for group in lockstep.plan_batch_groups(cells):
        if lockstep.cell_batchable(group[0]):
            yield from lockstep.run_cells_lockstep(group,
                                                   fallback=_execute_cell)
        elif stop_before(group[0].key):
            return
        else:
            yield _execute_cell(group[0])


def _take(cells: Deque[Cell], key: str) -> Cell:
    """Remove and return the first cell of ``cells`` keyed ``key``.

    Outcomes arrive out of cell order, so they are matched by key.  A
    degenerate sweep that lists a scheme twice plans cells that share a
    key; they are equal, so whichever comes first stands for the report.
    """
    for index, cell in enumerate(cells):
        if cell.key == key:
            del cells[index]
            return cell
    raise KeyError(f"outcome for cell {key} that was not dispatched")


class Executor(ABC):
    """Strategy interface: execute planned cells, stream their outcomes."""

    @abstractmethod
    def run(self, cells: Sequence[Cell]) -> Iterator[CellOutcome]:
        """Execute every cell, yielding a :class:`CellOutcome` per cell.

        Yield order is an implementation detail; every input cell is
        represented exactly once in the output stream.
        """


class SerialExecutor(Executor):
    """Execute cells one at a time in the calling process.

    The reference implementation: no pickling requirements, no
    subprocess overhead.  Results stream in the order :func:`_run_cells`
    yields them: a formation where its first member stands in the plan,
    its members as each one ends.
    """

    def run(self, cells: Sequence[Cell]) -> Iterator[CellOutcome]:
        cells = list(cells)
        unreported = deque(cells)
        for key, result, seconds in _run_cells(cells):
            yield CellOutcome(cell=_take(unreported, key), result=result,
                              seconds=seconds)


def _take_worker_books() -> dict:
    """Snapshot and clear what this process booked outside any
    replication since the last call (empty when nothing was booked)."""
    if not metrics_enabled():
        return {}
    booked = set_global_registry(MetricsRegistry())
    return booked.snapshot() if len(booked) else {}


def _worker_loop(conn) -> None:
    """Worker body: run each received task, reporting every cell as it ends.

    Each report carries the worker's own bookings since the previous
    one (:func:`_take_worker_books`), so a formation's counters reach
    the parent as they do at ``--jobs 1``.  The parent acknowledges each
    report with its drain state, which the worker's coordinator follows;
    a worker that stopped early sends ``None``.  SIGINT is ignored so a
    terminal Ctrl-C (delivered to the whole foreground process group)
    cannot kill workers mid-task -- draining in-flight work is the
    parent coordinator's contract.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    _take_worker_books()  # what the parent had booked before the fork
    drain = ShutdownCoordinator().install(signals=())
    while True:
        try:
            task = conn.recv()
        except (EOFError, OSError):
            return
        if task is None:
            conn.close()
            return
        if isinstance(task, bool):
            continue  # the acknowledgement of a finished task's report
        try:
            unacked = reported = 0
            for key, result, seconds in _run_cells(task):
                conn.send((key, result, seconds, _take_worker_books()))
                reported += 1
                unacked += 1
                while unacked > _MAX_UNACKED or (unacked and conn.poll()):
                    unacked -= 1
                    if conn.recv():
                        drain.follow()
            if reported < len(task):
                conn.send(None)
        except BaseException as exc:
            try:
                conn.send(exc)
            except Exception:
                conn.send(RuntimeError(
                    f"worker exception did not pickle: {exc!r}"))


class _Worker:
    """Parent-side record of one worker process and its task in flight."""

    __slots__ = ("process", "conn", "task", "since", "due")

    def __init__(self, process, conn) -> None:
        self.process = process
        self.conn = conn
        #: Cells of the current task not yet reported (empty when idle).
        self.task: Deque[Cell] = deque()
        #: When the watchdog budget last restarted, and when it expires.
        self.since = 0.0
        self.due: Optional[float] = None


class ParallelExecutor(Executor):
    """Execute cells on a pool of long-lived worker processes.

    Parameters
    ----------
    jobs:
        Worker process count (default: every available core).  With a
        budget set, ``jobs=1`` still runs cells in a child process --
        that is what makes a hung cell killable.
    chunk_size:
        Cells per dispatched task of fault-plan cells (the others form
        one lockstep formation per worker, :meth:`_chunks`); defaults to
        roughly ``n / (jobs * 4)`` of the ``n`` fault-plan cells so
        stragglers can be load-balanced while dispatch overhead stays
        amortised.
    cell_timeout:
        Per-cell wall-clock budget in seconds.  A worker's budget is
        ``cell_timeout`` times the size of the first lockstep group among
        its unreported cells, at most ``MAX_BATCH``, restarted at
        dispatch and at every reported cell.  ``None`` disarms it.
    deadline:
        Whole-run wall-clock budget in seconds, measured from the start
        of :meth:`run`.  On expiry the pool is torn down and
        :class:`~repro.utils.errors.SweepDeadlineExceeded` raised;
        completed cells were already streamed to the caller (and thus
        checkpointed), in-flight ones re-run on resume.
    shutdown:
        Explicit :class:`~repro.exec.supervisor.ShutdownCoordinator`;
        defaults to the process-wide
        :func:`~repro.exec.supervisor.active_shutdown` at run time.

    Notes
    -----
    Each task (a formation or a chunk from :meth:`_chunks`) runs
    through :func:`_run_cells` inside a worker, so lockstep batching
    engages, and every cell is reported over the worker's pipe as soon
    as it finishes; the parent matches reports to cells by key.  One
    failure rule covers worker death and budget overrun: the worker is
    replaced and its unreported cells are requeued as solo
    tasks; a solo cell is written off instead -- ``CellTimedOut`` at
    once, ``WorkerCrashed`` on its :data:`MAX_DISPATCH_ATTEMPTS`-th
    dispatch (each crash redispatch waits out a deterministic backoff).
    Cells are validated as picklable up front
    (:func:`~repro.exec.plan.ensure_picklable`).  Under an active drain
    no task is dispatched, workers start no cell once they learn of it,
    and the stream ends; the sweep harness detects the shortfall and raises
    :class:`~repro.utils.errors.SweepInterrupted`.
    """

    def __init__(self, jobs: Optional[int] = None, *,
                 chunk_size: Optional[int] = None,
                 cell_timeout: Optional[float] = None,
                 deadline: Optional[float] = None,
                 shutdown: Optional[ShutdownCoordinator] = None) -> None:
        if jobs is None:
            jobs = os.cpu_count() or 1
        if jobs < 1:
            raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
        if chunk_size is not None and chunk_size < 1:
            raise ConfigurationError(
                f"chunk_size must be >= 1, got {chunk_size}")
        if cell_timeout is not None and cell_timeout <= 0:
            raise ConfigurationError(
                f"cell_timeout must be > 0, got {cell_timeout}")
        if deadline is not None and deadline <= 0:
            raise ConfigurationError(f"deadline must be > 0, got {deadline}")
        self.jobs = int(jobs)
        self.chunk_size = chunk_size
        self.cell_timeout = None if cell_timeout is None else float(cell_timeout)
        self.deadline = None if deadline is None else float(deadline)
        self._shutdown = shutdown
        self._ctx = get_context()

    def _chunks(self, cells: Sequence[Cell]) -> List[List[Cell]]:
        """Cut cells into tasks: whole formations first, then chunks.

        The cells without a fault plan are dealt round-robin into one
        formation per worker, so the points' and schemes' costs spread
        evenly; the fault-plan cells follow in chunks of ``chunk_size``.
        """
        from repro.sim.lockstep import cell_batchable

        formation: List[Cell] = []
        rest: List[Cell] = []
        for cell in cells:
            (formation if cell_batchable(cell) else rest).append(cell)
        count = min(len(formation), self.jobs)
        tasks = [formation[i::count] for i in range(count)]
        size = self.chunk_size
        if size is None:
            size = max(1, math.ceil(len(rest) / (self.jobs * _CHUNKS_PER_WORKER)))
        tasks.extend(rest[i:i + size] for i in range(0, len(rest), size))
        return tasks

    # -- worker lifecycle ------------------------------------------------

    def _spawn(self) -> _Worker:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(target=_worker_loop, args=(child_conn,),
                                    daemon=True)
        process.start()
        child_conn.close()
        return _Worker(process, parent_conn)

    @staticmethod
    def _reap(worker: _Worker, grace: float = 0.0) -> None:
        """Give a worker ``grace`` seconds to exit, then kill it."""
        worker.process.join(grace)
        if worker.process.is_alive():
            worker.process.kill()
            worker.process.join()
        worker.conn.close()

    def _teardown(self, workers: List[_Worker]) -> None:
        for worker in workers:
            if not worker.task:
                try:
                    worker.conn.send(None)  # polite: let idle workers exit
                except (OSError, ValueError):
                    pass
        for worker in workers:
            self._reap(worker, 0.0 if worker.task else _EXIT_GRACE)

    def _arm(self, worker: _Worker) -> None:
        """Restart a busy worker's watchdog budget."""
        from repro.sim.lockstep import MAX_BATCH, plan_batch_groups

        worker.since = time.monotonic()
        if self.cell_timeout is not None:
            width = min(len(plan_batch_groups(worker.task)[0]), MAX_BATCH)
            worker.due = worker.since + self.cell_timeout * width

    # -- the dispatch loop -----------------------------------------------

    def _draining(self) -> bool:
        shutdown = self._shutdown or active_shutdown()
        return shutdown is not None and shutdown.draining

    def run(self, cells: Sequence[Cell]) -> Iterator[CellOutcome]:
        cells = list(cells)
        if not cells:
            return
        ensure_picklable(cells)
        pending: Deque[List[Cell]] = deque(self._chunks(cells))
        dispatches: Dict[str, int] = {}
        workers = [self._spawn() for _ in range(min(self.jobs, len(pending)))]
        run_deadline = (None if self.deadline is None
                        else time.monotonic() + self.deadline)
        outstanding = len(cells)
        logger.info("dispatching %d cells as %d tasks to %d workers "
                    "(cell_timeout=%s, deadline=%s)", len(cells),
                    len(pending), len(workers), self.cell_timeout,
                    self.deadline)
        try:
            while outstanding > 0:
                if run_deadline is not None and time.monotonic() >= run_deadline:
                    self._deadline_expired(workers, outstanding)
                if not self._draining():
                    self._dispatch(workers, pending, dispatches)
                busy = [w for w in workers if w.task]
                if not busy:
                    logger.warning("drain complete: %d cell(s) left "
                                   "undispatched", outstanding)
                    return
                for outcome in self._collect(workers, busy, pending,
                                             dispatches):
                    outstanding -= 1
                    yield outcome
        finally:
            self._teardown(workers)

    def _dispatch(self, workers: List[_Worker], pending: Deque[List[Cell]],
                  dispatches: Dict[str, int]) -> None:
        """Hand one task to every idle worker (replacing dead ones)."""
        for index, worker in enumerate(workers):
            if worker.task or not pending:
                continue
            task = pending.popleft()
            try:
                worker.conn.send(task)
            except (OSError, ValueError):
                # The idle worker died (or its pipe broke) between tasks;
                # replace it and send the same task there.
                logger.warning("idle worker died; replacing it")
                self._reap(worker)
                worker = workers[index] = self._spawn()
                worker.conn.send(task)
            for cell in task:
                dispatches[cell.key] = dispatches.get(cell.key, 0) + 1
            worker.task.extend(task)
            self._arm(worker)

    def _collect(self, workers: List[_Worker], busy: List[_Worker],
                 pending: Deque[List[Cell]], dispatches: Dict[str, int]
                 ) -> Iterator[CellOutcome]:
        """Wait for reports; yield results, crashes, and timeouts."""
        armed = self.cell_timeout is not None or self.deadline is not None
        ready = _connection_wait([w.conn for w in busy],
                                 timeout=_POLL_INTERVAL if armed else None)
        by_conn = {w.conn: w for w in busy}
        for conn in ready:
            worker = by_conn[conn]
            try:
                message = conn.recv()
            except (EOFError, OSError):
                yield from self._fail(workers, worker, pending, dispatches,
                                      crashed=True)
                continue
            if isinstance(message, BaseException):
                # Programming errors propagate unchanged, as everywhere
                # else in the execution stack.
                raise message
            if message is None:  # stopped by the drain; the rest never started
                worker.task.clear()
                continue
            # On receipt: a worker must not wait on checkpoint writes.
            try:
                conn.send(self._draining())
            except (OSError, ValueError):
                pass  # a dead worker is found at its next read
            key, result, seconds, books = message
            cell = _take(worker.task, key)
            if worker.task:
                self._arm(worker)
            yield CellOutcome(cell=cell, result=result, seconds=seconds,
                              worker_snapshot=books)
        now = time.monotonic()
        for worker in workers:
            if worker.task and worker.due is not None and now >= worker.due:
                yield from self._fail(workers, worker, pending, dispatches,
                                      crashed=False)

    def _fail(self, workers: List[_Worker], worker: _Worker,
              pending: Deque[List[Cell]], dispatches: Dict[str, int], *,
              crashed: bool) -> Iterator[CellOutcome]:
        """A worker died or overran its budget: replace it, then requeue
        its unreported cells as solo tasks or write off a solo cell."""
        cells = list(worker.task)
        elapsed = time.monotonic() - worker.since
        self._reap(worker)
        workers[workers.index(worker)] = self._spawn()
        first = cells[0]
        attempts = dispatches[first.key]
        if metrics_enabled():
            registry = global_registry()
            if crashed:
                registry.counter("repro_executor_worker_crashes_total").inc()
            registry.counter(
                "repro_supervisor_worker_replacements_total").inc()
        if len(cells) > 1 or (crashed and attempts < MAX_DISPATCH_ATTEMPTS):
            logger.warning(
                "worker %s with cell %s unreported; requeuing %d cell(s) as "
                "solo tasks", "died" if crashed else "overran its budget",
                first.key, len(cells))
            if crashed:
                apply_backoff(first.config.seed, first.run_index, attempts,
                              reason="worker-crash")
            pending.extendleft([cell] for cell in reversed(cells))
            return
        if crashed:
            logger.error("cell %s killed %d workers; written off as "
                         "WorkerCrashed", first.key, attempts)
            failure = FailedRun(
                run_index=first.run_index, error_type="WorkerCrashed",
                error=f"worker process died executing cell {first.key} "
                      f"({attempts} dispatches)",
                attempts=attempts)
            yield CellOutcome(cell=first, result=failure, seconds=0.0)
            return
        logger.error("cell %s exceeded its %.3g s deadline (%.3g s elapsed); "
                     "written off as CellTimedOut", first.key,
                     self.cell_timeout, elapsed)
        if metrics_enabled():
            global_registry().counter(
                "repro_supervisor_cell_timeouts_total").inc()
        tracer = active_tracer()
        if tracer is not None:
            tracer.bump("cell_timeouts")
            tracer.event("cell-timeout", kind="supervision", cell=first.key)
        failure = FailedRun(
            run_index=first.run_index, error_type="CellTimedOut",
            error=f"cell {first.key} exceeded the per-cell deadline of "
                  f"{self.cell_timeout:g}s; its worker was killed and "
                  f"replaced",
            attempts=1)
        yield CellOutcome(cell=first, result=failure, seconds=elapsed)

    def _deadline_expired(self, workers: List[_Worker],
                          outstanding: int) -> None:
        in_flight = sorted(w.task[0].key for w in workers if w.task)
        if metrics_enabled():
            global_registry().counter(
                "repro_supervisor_deadline_aborts_total").inc()
        tracer = active_tracer()
        if tracer is not None:
            tracer.bump("deadline_aborts")
            tracer.event("sweep-deadline", kind="supervision",
                         outstanding=outstanding)
        raise SweepDeadlineExceeded(
            f"sweep deadline of {self.deadline:g}s expired with "
            f"{outstanding} cell(s) outstanding (in flight: "
            f"{', '.join(in_flight) or 'none'}); completed cells are "
            f"checkpointed, the rest re-run on resume")


def make_executor(jobs: Optional[int] = None, *,
                  cell_timeout: Optional[float] = None,
                  deadline: Optional[float] = None) -> Executor:
    """Map ``--jobs``/``--cell-timeout``/``--deadline`` onto a strategy.

    ``None`` or ``1`` with no budget selects :class:`SerialExecutor`;
    anything else selects a :class:`ParallelExecutor` with that worker
    count (one worker for ``None``), whose watchdog needs the cells in
    killable child processes.
    """
    if jobs is not None and jobs < 1:
        raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
    jobs = 1 if jobs is None else jobs
    if jobs == 1 and cell_timeout is None and deadline is None:
        return SerialExecutor()
    return ParallelExecutor(jobs, cell_timeout=cell_timeout,
                            deadline=deadline)
