"""Supervision support: graceful shutdown, retry backoff, exit codes.

The executors (:mod:`repro.exec.executor`) own the failures a
replication cannot handle for itself -- worker deaths and, with
``--cell-timeout``/``--deadline`` set, stuck or slow cells, which
neither raise nor die and would otherwise wedge a pool forever.  This
module holds the pieces they share with the sweep harness and the CLI:

* :class:`ShutdownCoordinator` -- a two-stage SIGINT/SIGTERM protocol.
  The first signal only sets a draining flag: executors stop dispatching
  new cells, in-flight cells finish and are checkpointed, telemetry is
  flushed, and the harness raises
  :class:`~repro.utils.errors.SweepInterrupted` (mapped by the CLI to
  :data:`EXIT_INTERRUPTED`).  A second signal runs the registered
  flushers (checkpoint fsync, trace/metrics dump) and hard-exits with
  :data:`EXIT_HARD_ABORT`.
* :func:`backoff_delay` / :func:`apply_backoff` -- deterministic
  exponential backoff with bounded jitter for every retry path (the
  fresh-seed replication retry and the worker-crash redispatch).  The
  jitter is derived from the cell's seed and attempt number alone, so
  two runs of the same sweep back off identically and results stay
  bit-identical at any worker count.
* The CLI's exit codes.

Supervision is telemetry-and-scheduling only: it never touches RNG
streams or results, so a supervised run of a healthy sweep is
byte-identical to a serial one (asserted by
``tests/robustness/test_supervision.py``).
"""

from __future__ import annotations

import os
import signal
import time
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.obs.logging import get_logger
from repro.obs.metrics import global_registry, metrics_enabled
from repro.obs.trace import active_tracer

logger = get_logger(__name__)

#: Exit code the CLI returns when ``--fail-on-error`` is set and any
#: replication failed (including timed-out cells).
EXIT_FAILED_RUNS = 3
#: Exit code for a graceful shutdown: first SIGINT/SIGTERM, drained and
#: flushed, resumable from the checkpoint.
EXIT_INTERRUPTED = 4
#: Exit code when the whole-sweep ``--deadline`` expired.
EXIT_DEADLINE = 5
#: Exit code of the hard abort on a second SIGINT/SIGTERM.
EXIT_HARD_ABORT = 6

#: First-retry backoff in seconds; doubles per further attempt.
BACKOFF_BASE = 0.05
#: Upper bound on any single backoff sleep, before jitter.
BACKOFF_CAP = 2.0
#: Entropy tag namespacing backoff jitter away from simulation seeds.
_BACKOFF_TAG = 0xBACC0FF

#: Dispatches before a worker-killing cell is written off as
#: ``WorkerCrashed``.
MAX_DISPATCH_ATTEMPTS = 2


# -- deterministic retry backoff -----------------------------------------


def backoff_delay(seed: Optional[int], run_index: int, attempt: int, *,
                  base: float = BACKOFF_BASE, cap: float = BACKOFF_CAP) -> float:
    """Deterministic exponential backoff with bounded jitter, in seconds.

    Attempt 0 (the first try) never waits.  Attempt ``n >= 1`` waits
    ``min(cap, base * 2**(n-1))`` scaled by a jitter factor in
    ``[0.5, 1.0)`` derived from ``(seed, run_index, attempt)`` alone --
    no wall clock, no process entropy -- so identical sweeps back off
    identically wherever and whenever they run.
    """
    if attempt <= 0:
        return 0.0
    magnitude = min(float(cap), float(base) * (2.0 ** (attempt - 1)))
    entropy = [_BACKOFF_TAG, 0 if seed is None else int(seed),
               int(run_index), int(attempt)]
    jitter = np.random.SeedSequence(entropy).generate_state(1)[0] / 2.0 ** 32
    return magnitude * (0.5 + 0.5 * float(jitter))


def apply_backoff(seed: Optional[int], run_index: int, attempt: int, *,
                  reason: str, sleep: Callable[[float], None] = time.sleep
                  ) -> float:
    """Sleep :func:`backoff_delay` and record the wait in the metrics.

    Returns the seconds slept (0.0 for attempt 0).  ``reason`` labels the
    retry path (``"replication-retry"`` or ``"worker-crash"``) in the
    ``repro_retry_backoffs_total`` counters.
    """
    delay = backoff_delay(seed, run_index, attempt)
    if delay <= 0.0:
        return 0.0
    if metrics_enabled():
        registry = global_registry()
        registry.counter("repro_retry_backoffs_total", reason=reason).inc()
        registry.counter("repro_retry_backoff_seconds_total",
                         reason=reason).inc(delay)
    logger.info("backing off %.3f s before %s retry (run %d, attempt %d)",
                delay, reason, run_index, attempt)
    sleep(delay)
    return delay


# -- graceful shutdown ----------------------------------------------------


class ShutdownCoordinator:
    """Two-stage SIGINT/SIGTERM protocol for long-running sweeps.

    Stage 1 (first signal): flip :attr:`draining`.  Nothing is killed;
    executors notice the flag, stop dispatching, and let in-flight cells
    finish so they reach the checkpoint.  The harness then raises
    :class:`~repro.utils.errors.SweepInterrupted`.

    Stage 2 (second signal): the operator wants out *now*.  Every
    registered flusher runs (checkpoint fsync, trace/metrics dump), then
    the process hard-exits with :data:`EXIT_HARD_ABORT`.

    The coordinator can be driven without real signals via
    :meth:`trigger` (used by tests and by in-process embedding), and
    installs/uninstalls as a context manager.  Installing also registers
    it as the process-wide :func:`active_shutdown`, which is how the
    executors and the sweep loop discover it without threading it
    through every call signature.
    """

    def __init__(self, *, hard_exit: Callable[[int], None] = os._exit) -> None:
        self._stage = 0
        self._flushers: List[Callable[[], None]] = []
        self._previous: Dict[int, object] = {}
        self._hard_exit = hard_exit

    # -- state -----------------------------------------------------------

    @property
    def stage(self) -> int:
        """Signals received so far (0 = none, 1 = draining, 2+ = abort)."""
        return self._stage

    @property
    def draining(self) -> bool:
        """Whether dispatching should stop and in-flight work drain."""
        return self._stage >= 1

    def add_flusher(self, flusher: Callable[[], None]) -> None:
        """Register a durability hook to run on a hard abort."""
        self._flushers.append(flusher)

    def follow(self) -> None:
        """Drain without logging or counting: a worker follows its parent."""
        self._stage = max(self._stage, 1)

    def remove_flusher(self, flusher: Callable[[], None]) -> None:
        """Unregister a hook added with :meth:`add_flusher`."""
        try:
            self._flushers.remove(flusher)
        except ValueError:
            pass

    # -- signal plumbing -------------------------------------------------

    def install(self, signals: Sequence[int] = (signal.SIGINT, signal.SIGTERM)
                ) -> "ShutdownCoordinator":
        """Install the handler for ``signals`` and become the process-wide
        active coordinator.  Returns ``self`` for chaining."""
        global _ACTIVE_SHUTDOWN
        for signum in signals:
            self._previous[signum] = signal.signal(signum, self._handle)
        _ACTIVE_SHUTDOWN = self
        return self

    def uninstall(self) -> None:
        """Restore the previous signal handlers and clear the global."""
        global _ACTIVE_SHUTDOWN
        for signum, handler in self._previous.items():
            signal.signal(signum, handler)
        self._previous.clear()
        if _ACTIVE_SHUTDOWN is self:
            _ACTIVE_SHUTDOWN = None

    def __enter__(self) -> "ShutdownCoordinator":
        return self.install()

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    def _handle(self, signum, frame) -> None:
        self.trigger(signum)

    def trigger(self, signum: int = signal.SIGINT) -> None:
        """Advance one shutdown stage (callable without a real signal)."""
        self._stage += 1
        if self._stage > 1:
            self._abort(signum)
            return
        # Stage 1 runs inside a signal handler: record intent, never
        # raise.  The actual draining happens in the executors' loops.
        try:
            logger.warning(
                "signal %s: draining -- no new cells dispatched; in-flight "
                "cells finish and are checkpointed (signal again to abort)",
                signum)
            if metrics_enabled():
                global_registry().counter(
                    "repro_shutdown_signals_total", stage="drain").inc()
            tracer = active_tracer()
            if tracer is not None:
                tracer.bump("shutdown_signals")
                tracer.event("shutdown-drain", kind="supervision",
                             signal=int(signum))
        except Exception:  # pragma: no cover - handler must never raise
            pass

    def _abort(self, signum) -> None:
        logger.error("signal %s: hard abort -- flushing and exiting %d",
                     signum, EXIT_HARD_ABORT)
        try:
            if metrics_enabled():
                global_registry().counter(
                    "repro_shutdown_signals_total", stage="abort").inc()
        except Exception:  # pragma: no cover
            pass
        try:
            # The tracer buffers lines between replication boundaries;
            # drain it first so the trace reads up to the abort instant
            # even when no obs flusher was registered.
            tracer = active_tracer()
            if tracer is not None:
                tracer.flush()
        except Exception:  # pragma: no cover - the exit must proceed
            pass
        for flusher in list(self._flushers):
            try:
                flusher()
            except Exception:  # a broken flusher must not block the exit
                logger.exception("shutdown flusher %r failed", flusher)
        self._hard_exit(EXIT_HARD_ABORT)


#: The process-wide coordinator installed by ShutdownCoordinator.install().
_ACTIVE_SHUTDOWN: Optional[ShutdownCoordinator] = None


def active_shutdown() -> Optional[ShutdownCoordinator]:
    """The installed coordinator, or ``None`` outside a supervised run."""
    return _ACTIVE_SHUTDOWN


def shutdown_draining() -> bool:
    """Whether a shutdown signal has requested draining (cheap gate)."""
    coordinator = _ACTIVE_SHUTDOWN
    return coordinator is not None and coordinator.draining


def stop_before(key: str) -> bool:
    """Whether a shutdown drain forbids starting the cell ``key`` (logged)."""
    if shutdown_draining():
        logger.warning("shutdown requested; stopping before cell %s", key)
        return True
    return False
