"""Parallel execution subsystem: plan/execute split for Monte-Carlo work.

A figure sweep is an embarrassingly parallel grid of independent
``(scheme, sweep point, replication)`` cells whose seeds are all derived
from one root seed.  This package separates *planning* -- flattening a
sweep (or a single Monte-Carlo campaign) into a deterministic list of
picklable :class:`~repro.exec.plan.Cell` work items -- from *execution*,
a swappable :class:`~repro.exec.executor.Executor` strategy
(:class:`~repro.exec.executor.SerialExecutor` in-process,
:class:`~repro.exec.executor.ParallelExecutor` across a pool of worker
processes, with an optional per-cell and whole-run watchdog).

Because every cell's randomness is derived from ``(root seed, run
index)`` alone and results are assembled by cell key rather than
completion order, parallel execution is bit-identical to serial
execution -- the paired comparisons of the paper's figures survive
unchanged at any worker count.
"""

from repro.exec.executor import (
    CellOutcome,
    Executor,
    ParallelExecutor,
    SerialExecutor,
    make_executor,
)
from repro.exec.plan import Cell, SweepPlan, ensure_picklable, plan_campaign, plan_sweep
from repro.exec.progress import (
    CellTiming,
    ProgressTracker,
    TimingReport,
    parse_progress_line,
)
from repro.exec.supervisor import (
    EXIT_DEADLINE,
    EXIT_FAILED_RUNS,
    EXIT_HARD_ABORT,
    EXIT_INTERRUPTED,
    ShutdownCoordinator,
    active_shutdown,
    apply_backoff,
    backoff_delay,
    shutdown_draining,
)

__all__ = [
    "Cell",
    "CellOutcome",
    "CellTiming",
    "EXIT_DEADLINE",
    "EXIT_FAILED_RUNS",
    "EXIT_HARD_ABORT",
    "EXIT_INTERRUPTED",
    "Executor",
    "ParallelExecutor",
    "ProgressTracker",
    "SerialExecutor",
    "ShutdownCoordinator",
    "SweepPlan",
    "TimingReport",
    "active_shutdown",
    "apply_backoff",
    "backoff_delay",
    "ensure_picklable",
    "make_executor",
    "parse_progress_line",
    "plan_campaign",
    "plan_sweep",
    "shutdown_draining",
]
