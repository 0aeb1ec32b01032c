"""Observability: tracing, metrics, logging, and run provenance.

The package is inert until :func:`configure` is called (the CLI does so
from ``--trace`` / ``--metrics`` / ``--log-level`` / ``--profile``);
instrumentation points across the engine, solvers, and executor check a
module-global gate first, so a run with observability off pays nothing
beyond that check.  Telemetry is strictly out-of-band: results and
checkpoints are byte-identical with observability on or off, at any
``--jobs N``.

See DESIGN.md section 12 for the architecture and the single-writer
trace rule.
"""

from __future__ import annotations

from typing import Optional

from repro.obs.export import (
    prometheus_text,
    read_manifest,
    read_metrics_snapshot,
    result_provenance,
    run_manifest,
    write_manifest,
    write_metrics,
    write_metrics_snapshot,
)
from repro.obs.logging import (
    configure_logging,
    get_logger,
    reset_logging,
    resolve_level,
)
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    ITERATION_BUCKETS,
    PSNR_BUCKETS,
    MetricsRegistry,
    accumulate_phase_seconds,
    enable_metrics,
    format_phase_seconds,
    global_registry,
    metrics_enabled,
    reset_metrics,
    scoped_registry,
    set_global_registry,
)
from repro.obs.trace import (
    DEFAULT_MAX_EVENTS,
    SpanTracer,
    activate,
    active_tracer,
    deactivate,
    iter_trace,
    maybe_span,
    read_trace,
)

__all__ = [
    "DEFAULT_BUCKETS",
    "DEFAULT_MAX_EVENTS",
    "ITERATION_BUCKETS",
    "PSNR_BUCKETS",
    "MetricsRegistry",
    "SpanTracer",
    "accumulate_phase_seconds",
    "activate",
    "active_tracer",
    "configure",
    "configure_logging",
    "deactivate",
    "enable_metrics",
    "format_phase_seconds",
    "get_logger",
    "global_registry",
    "iter_trace",
    "maybe_span",
    "metrics_enabled",
    "prometheus_text",
    "read_manifest",
    "read_metrics_snapshot",
    "read_trace",
    "reset_logging",
    "reset_metrics",
    "resolve_level",
    "result_provenance",
    "run_manifest",
    "scoped_registry",
    "set_global_registry",
    "shutdown",
    "write_manifest",
    "write_metrics",
    "write_metrics_snapshot",
]

#: Where :func:`shutdown` writes the Prometheus dump, set by configure().
_metrics_path: Optional[str] = None


def configure(*, trace_path: Optional[str] = None,
              metrics_path: Optional[str] = None,
              log_level: Optional[str] = None,
              profile: bool = False,
              max_trace_events: int = DEFAULT_MAX_EVENTS) -> None:
    """Turn on the requested observability surfaces.

    ``trace_path`` activates the span tracer; ``metrics_path`` enables
    the metrics registry (dumped to that path by :func:`shutdown`);
    ``log_level`` installs the stderr log handler.  A plain trace
    records run/replication/slot spans; ``profile`` additionally turns
    on per-phase and solver spans (the ``--profile`` contract).
    """
    global _metrics_path
    if log_level is not None:
        configure_logging(log_level)
    if trace_path is not None:
        activate(SpanTracer(trace_path, max_events=max_trace_events,
                            collect_phases=profile))
    if metrics_path is not None:
        _metrics_path = metrics_path
        reset_metrics()
        enable_metrics(True)


def shutdown() -> None:
    """Flush and disable every surface enabled by :func:`configure`.

    Writes the metrics dump (if a metrics path was configured), closes
    the tracer (emitting its ``trace-summary`` line), and turns metric
    collection off.  Safe to call when nothing was configured.

    The metrics dump format follows the path's extension: ``*.json``
    gets a re-absorbable JSON snapshot
    (:func:`~repro.obs.export.write_metrics_snapshot`, which the job
    service folds into its server-wide registry); anything else gets
    the Prometheus text exposition.
    """
    global _metrics_path
    deactivate()
    if _metrics_path is not None:
        if _metrics_path.endswith(".json"):
            write_metrics_snapshot(_metrics_path, global_registry())
        else:
            write_metrics(_metrics_path, global_registry())
        _metrics_path = None
    enable_metrics(False)
