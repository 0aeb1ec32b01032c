"""Exception hierarchy for the :mod:`repro` package.

All exceptions raised intentionally by the library derive from
:class:`ReproError`, so callers can catch library failures with a single
``except ReproError`` clause while letting programming errors propagate.
"""


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigurationError(ReproError, ValueError):
    """An input, parameter, or scenario configuration is invalid.

    Inherits from :class:`ValueError` so that call sites which validate
    scalar arguments behave like idiomatic Python APIs.
    """


class NumericalError(ReproError):
    """A non-finite value (NaN/inf) surfaced where a finite one is required.

    Raised by runtime validation points (fading draws, slot allocations)
    so that numerical corruption is reported as a structured, catchable
    library failure instead of silently propagating through the PSNR
    recursion.
    """


class AllocationFailedError(ReproError):
    """Every allocator in a slot's fallback chain failed to produce a
    usable allocation.

    Carries the per-stage degradation events so callers can see exactly
    which allocator failed with which cause.

    Attributes
    ----------
    events:
        The :class:`~repro.sim.fallback.DegradationEvent` records of the
        failed stages (one per attempted allocator).
    """

    def __init__(self, message, events=()):
        super().__init__(message)
        self.events = tuple(events)


class CheckpointError(ReproError):
    """A sweep checkpoint file is unreadable or inconsistent with the
    sweep being resumed."""


class SweepInterrupted(ReproError):
    """A sweep drained and stopped early because a shutdown signal arrived.

    Raised by the Monte-Carlo harness after a
    :class:`~repro.exec.supervisor.ShutdownCoordinator` entered its
    draining stage and some cells were left unexecuted.  Completed cells
    are already checkpointed (when a checkpoint path was given), so the
    sweep can be resumed later; the CLI maps this to its documented
    graceful-shutdown exit code.
    """


class SweepDeadlineExceeded(ReproError):
    """The whole-sweep wall-clock deadline expired before every cell
    completed.

    Raised by the parallel executor when ``--deadline`` elapses:
    in-flight workers are killed (their cells re-run on resume, they are
    *not* recorded as failed) and already-completed cells survive in the
    checkpoint.
    """


class ConvergenceError(ReproError):
    """An iterative solver failed to converge within its iteration budget.

    Attributes
    ----------
    iterations:
        Number of iterations performed before giving up.
    residual:
        Final value of the convergence criterion.
    """

    def __init__(self, message, iterations=None, residual=None):
        super().__init__(message)
        self.iterations = iterations
        self.residual = residual
