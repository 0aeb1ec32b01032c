"""Span tracer writing bounded, append-only JSONL event traces.

Spans nest run -> replication -> slot -> phase, with solver-level child
spans (``dual-solve``) below the allocation phase.  Each span becomes
one JSON line when it closes::

    {"kind": "phase", "name": "allocation", "span": 17, "parent": 16,
     "pid": 4242, "t": 1722950000.123, "dur": 0.0042,
     "attrs": {"slot": 3}}

Design rules (see DESIGN.md section 12):

* **Zero overhead when disabled.**  Producers call
  :func:`active_tracer` -- a single module-global read returning
  ``None`` -- and skip all span bookkeeping when no tracer is active.
* **Single writer per file.**  A trace file is only ever appended to by
  the process that opened it.  Under ``--jobs N`` the executor forks
  workers that inherit the active tracer; the first span recorded in a
  child notices the PID change and transparently re-opens a per-process
  sidecar (``<path>.<pid>``), so the parent file never sees interleaved
  writes.  (This relies on the fork start method -- the Linux default --
  where children inherit module globals; under spawn, workers simply
  trace nothing, which is safe but silent.)
* **Bounded.**  At most ``max_events`` lines are written per file;
  further spans are counted but dropped, and a final ``trace-summary``
  event reports the totals so truncation is never silent.
* **Buffered, flushed at boundaries.**  Lines accumulate in memory and
  reach the OS in batches: on every ``replication``/``run`` span close,
  whenever :data:`FLUSH_BUFFER_LINES` lines pile up, and on
  :meth:`SpanTracer.close`.  (The original per-line ``flush()`` showed
  up as measurable syscall overhead on the hot slot/phase path in
  BENCH_engine.json.)  Crash durability moves to explicit
  :meth:`SpanTracer.flush` calls: the supervisor's hard-abort path and
  the registered shutdown flushers drain the buffer before the process
  dies, and a forked worker starts its sidecar with an empty buffer so
  the parent's unflushed lines are never duplicated.

Telemetry stays out-of-band: tracing never touches RNG streams or
results, so simulation output is byte-identical with tracing on or off.
"""

from __future__ import annotations

import atexit
import json
import os
import time
from contextlib import contextmanager
from typing import IO, Dict, Iterator, List, Optional

#: Default cap on events written per trace file.
DEFAULT_MAX_EVENTS = 200_000

#: Buffered lines are written through at the close of a replication- or
#: run-level span, or whenever this many accumulate, whichever is first.
FLUSH_BUFFER_LINES = 64

#: Span kinds whose close marks a natural durability boundary.
_FLUSH_KINDS = frozenset({"replication", "run"})


class OpenSpan:
    """A span opened by :meth:`SpanTracer.begin`, not yet written."""

    __slots__ = ("kind", "name", "span", "parent", "attrs", "t", "start")

    def __init__(self, kind: str, name: str, span: int,
                 parent: Optional[int], attrs: Dict[str, object]) -> None:
        self.kind = kind
        self.name = name
        self.span = span
        self.parent = parent
        self.attrs = attrs
        self.t = time.time()
        self.start = time.perf_counter()


class SpanTracer:
    """Append-only JSONL span/event writer bound to one output path."""

    def __init__(self, path: str, *, max_events: int = DEFAULT_MAX_EVENTS,
                 collect_phases: bool = True) -> None:
        self.path = str(path)
        self.max_events = int(max_events)
        #: Whether per-phase (and solver) spans are recorded; slot and
        #: coarser spans are always on.  ``--profile`` forces this True.
        self.collect_phases = bool(collect_phases)
        self._pid = os.getpid()
        self._file: Optional[IO[str]] = open(self.path, "a", encoding="utf-8")
        self._next_id = 0
        self._written = 0
        self._dropped = 0
        self._stack: List[int] = []
        self._buffer: List[str] = []
        self._closed = False
        self._notes: Dict[str, object] = {}

    # Writer plumbing ----------------------------------------------------

    def _writer(self) -> Optional[IO[str]]:
        """The file for *this* process, re-opening a sidecar after fork.

        A forked worker inherits the parent's open file object; writing
        to it would interleave with the parent's output.  Detect the PID
        change and switch to ``<path>.<pid>`` with fresh counters so the
        single-writer rule holds for every file.
        """
        pid = os.getpid()
        if pid != self._pid:
            self._pid = pid
            self._file = open(f"{self.path}.{pid}", "a", encoding="utf-8")
            self._written = 0
            self._dropped = 0
            self._closed = False
            self._notes = {}  # the parent's annotations are not ours
            self._buffer = []  # ...nor are its unflushed lines
        return self._file

    def _write(self, record: dict) -> None:
        out = self._writer()
        if out is None or self._closed:
            return
        if self._written >= self.max_events:
            self._dropped += 1
            return
        # Stamp after _writer(): a forked child's first record must carry
        # the child's pid, which _writer() just detected.
        record["pid"] = self._pid
        self._buffer.append(json.dumps(record, separators=(",", ":")) + "\n")
        self._written += 1
        if (record.get("kind") in _FLUSH_KINDS
                or len(self._buffer) >= FLUSH_BUFFER_LINES):
            self.flush()

    def flush(self) -> None:
        """Drain buffered lines to the OS (crash paths call this).

        Durability boundary for everything recorded so far in this
        process; a no-op between boundaries when the buffer is empty.
        """
        out = self._writer()
        if out is None:
            return
        if self._buffer:
            out.write("".join(self._buffer))
            self._buffer.clear()
        out.flush()

    def _new_id(self) -> int:
        self._next_id += 1
        return self._next_id

    # Recording API ------------------------------------------------------

    @contextmanager
    def span(self, name: str, *, kind: str = "span", **attrs: object) -> Iterator[int]:
        """Record a timed span enclosing the ``with`` body.

        Yields the span id; nesting is tracked per process, so a span
        opened inside another records it as ``parent``.
        """
        opened = self.begin(name, kind=kind, **attrs)
        try:
            yield opened.span
        finally:
            self.end(opened, time.perf_counter() - opened.start)

    def begin(self, name: str, *, kind: str = "span",
              **attrs: object) -> OpenSpan:
        """Open a span on the stack; :meth:`end` closes it.

        For spans that do not enclose one ``with`` block: a slot body
        that yields its solve requests, or a lockstep member's
        replication, whose length is its apportioned time rather than
        the wall time between open and close.
        """
        opened = OpenSpan(kind, name, self._new_id(),
                          self._stack[-1] if self._stack else None, attrs)
        self._stack.append(opened.span)
        return opened

    def end(self, opened: OpenSpan, seconds: float,
            **attrs: object) -> None:
        """Close ``opened`` as ``seconds`` long, adding ``attrs``."""
        if self._stack and self._stack[-1] == opened.span:
            self._stack.pop()
        record = {"kind": opened.kind, "name": opened.name,
                  "span": opened.span, "parent": opened.parent,
                  "pid": self._pid, "t": opened.t, "dur": float(seconds)}
        if opened.attrs or attrs:
            record["attrs"] = dict(opened.attrs, **attrs)
        self._write(record)

    def open_spans(self) -> List[int]:
        """Ids of the open spans, outermost first (a copy)."""
        return list(self._stack)

    def swap_stack(self, stack: List[int]) -> List[int]:
        """Install ``stack`` as the open-span stack; return the old one.

        The lockstep driver keeps one stack per member and swaps it in
        while the member runs, so each member's spans nest under its
        own replication and slot.
        """
        previous, self._stack = self._stack, stack
        return previous

    def emit_span(self, name: str, *, kind: str = "span",
                  seconds: float, **attrs: object) -> int:
        """Record an externally-timed span ending now.

        For producers that already measure their own duration (the
        engine's ``_mark_phase``): the span closes at call time with
        the given length instead of wrapping a ``with`` block.
        """
        opened = OpenSpan(kind, name, self._new_id(),
                          self._stack[-1] if self._stack else None, attrs)
        opened.t -= seconds
        self.end(opened, seconds)
        return opened.span

    def bump(self, name: str, amount: int = 1) -> None:
        """Increment a named counter carried on the trace-summary trailer.

        Supervision events (cell timeouts, shutdown signals, deadline
        aborts) bump here so the trailer answers "did anything unusual
        happen in this run?" without scanning every event line.
        """
        self._notes[name] = int(self._notes.get(name, 0)) + int(amount)

    def note(self, **attrs: object) -> None:
        """Attach arbitrary key/value annotations to the trailer."""
        self._notes.update(attrs)

    def event(self, name: str, *, kind: str = "event", **attrs: object) -> int:
        """Record an instantaneous event (e.g. a degradation)."""
        span_id = self._new_id()
        parent = self._stack[-1] if self._stack else None
        record = {"kind": kind, "name": name, "span": span_id,
                  "parent": parent, "pid": self._pid, "t": time.time()}
        if attrs:
            record["attrs"] = attrs
        self._write(record)
        return span_id

    # Lifecycle ----------------------------------------------------------

    @property
    def dropped(self) -> int:
        """Events dropped in this process because the cap was reached."""
        return self._dropped

    @property
    def written(self) -> int:
        """Events recorded by this process so far (buffered or on disk)."""
        return self._written

    def close(self) -> None:
        """Write the trailing ``trace-summary`` line and close the file.

        Drains the buffer first, so every recorded line precedes the
        trailer.  Only closes the file owned by the current process;
        idempotent.
        """
        out = self._writer()
        if out is None or self._closed:
            return
        attrs = {"written": self._written, "dropped": self._dropped,
                 "max_events": self.max_events}
        attrs.update(self._notes)
        summary = {"kind": "trace-summary", "name": "trace-summary",
                   "span": self._new_id(), "parent": None, "pid": self._pid,
                   "t": time.time(), "attrs": attrs}
        self._buffer.append(json.dumps(summary, separators=(",", ":")) + "\n")
        self.flush()
        self._closed = True
        out.close()
        self._file = None


#: The process-wide active tracer (None = tracing disabled).
_ACTIVE: Optional[SpanTracer] = None


def active_tracer() -> Optional[SpanTracer]:
    """The active tracer, or ``None`` when tracing is off.

    This is the zero-overhead gate: every producer checks it before any
    span bookkeeping, and with tracing disabled the check is a single
    module attribute read.
    """
    return _ACTIVE


def activate(tracer: SpanTracer) -> SpanTracer:
    """Install ``tracer`` as the process-wide active tracer."""
    global _ACTIVE
    if _ACTIVE is not None and _ACTIVE is not tracer:
        _ACTIVE.close()
    _ACTIVE = tracer
    return tracer


def deactivate() -> None:
    """Close and clear the active tracer (no-op when tracing is off)."""
    global _ACTIVE
    if _ACTIVE is not None:
        _ACTIVE.close()
        _ACTIVE = None


@contextmanager
def maybe_span(name: str, *, kind: str = "span", **attrs: object) -> Iterator[Optional[int]]:
    """``tracer.span(...)`` if tracing is on, else a no-op context."""
    tracer = _ACTIVE
    if tracer is None:
        yield None
        return
    with tracer.span(name, kind=kind, **attrs) as span_id:
        yield span_id


def iter_trace(path: str) -> Iterator[dict]:
    """Stream a JSONL trace file as parsed event dicts, one per line.

    Generator form of :func:`read_trace`: only one line is ever held in
    memory, so a consumer (e.g. the job service's trace endpoint) can
    relay a multi-hundred-thousand-event file without loading it whole.
    Tolerates a truncated final line (crash mid-write): complete lines
    before it are still yielded, then iteration stops.
    """
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                yield json.loads(line)
            except json.JSONDecodeError:
                return


def read_trace(path: str) -> List[dict]:
    """Parse a JSONL trace file back into a list of event dicts.

    Eager form of :func:`iter_trace` (same truncation tolerance), kept
    for callers that want the whole trace for analysis.
    """
    return list(iter_trace(path))


atexit.register(deactivate)
