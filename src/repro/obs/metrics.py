"""Counter / gauge / histogram registry for simulation telemetry.

The registry gives every layer of the per-slot pipeline a place to
record *what happened* -- dual-solver iterations and convergence status,
greedy ``Q(c)`` cache hits, fallback degradations, access-decision
collision/deny counts, per-user PSNR distributions, executor worker
utilization -- without threading a telemetry object through every call
signature.  Instrumentation points consult :func:`metrics_enabled`
first; with observability off that is one module-global read, so the
disabled path adds no measurable overhead to the hot loops.

Telemetry is strictly out-of-band: nothing in this module touches RNG
streams, results, or checkpoints, so simulation output stays
byte-identical with metrics on or off (asserted by
``tests/obs/test_differential.py``).

Cross-process collection under ``--jobs N`` works by snapshot, not by
shared state: :func:`repro.sim.runner.execute_run` runs each replication
under :func:`scoped_registry`, attaches the snapshot to the (picklable)
``RunMetrics``, and the parent folds every snapshot into its own global
registry with :meth:`MetricsRegistry.absorb`.  Engine-side counts are
deterministic given the seed, so the merged totals are identical at any
worker count.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterator, List, Mapping, Sequence, Tuple

#: Default histogram bucket upper bounds (generic positive quantities).
DEFAULT_BUCKETS = (0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 50.0)

#: Bucket upper bounds for Y-PSNR observations (dB).
PSNR_BUCKETS = (10.0, 15.0, 20.0, 25.0, 28.0, 30.0, 32.0, 34.0, 36.0,
                38.0, 40.0, 45.0, 50.0)

#: Bucket upper bounds for dual-solver iteration counts.
ITERATION_BUCKETS = (10.0, 25.0, 50.0, 100.0, 150.0, 250.0, 400.0,
                     1000.0, 2500.0, 5000.0)


def accumulate_phase_seconds(totals: Dict[str, float],
                             phases: Mapping[str, float]) -> Dict[str, float]:
    """Fold one ``{phase: seconds}`` mapping into a running total.

    The single shared implementation of the phase-aggregation loop that
    used to be duplicated between ``repro.sim.metrics.summarize_runs``
    and ``repro.exec.progress.ProgressTracker``; mutates and returns
    ``totals``.
    """
    for phase, seconds in phases.items():
        totals[phase] = totals.get(phase, 0.0) + float(seconds)
    return totals


def format_phase_seconds(phases: Mapping[str, float]) -> str:
    """Render a phase-seconds mapping as the canonical report fragment.

    One format for every surface that prints phase timings (the timing
    report's ``per phase`` line, the CLI's ``simulate --profile`` row).
    """
    return "; ".join(f"{phase} {seconds:.2f} s"
                     for phase, seconds in phases.items())


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be non-negative) to the counter."""
        if amount < 0:
            raise ValueError(f"counters only go up, got increment {amount}")
        self.value += amount


class Gauge:
    """Last-written instantaneous value."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        """Record the current value."""
        self.value = float(value)


class Histogram:
    """Cumulative-bucket histogram (Prometheus semantics).

    ``buckets`` are the finite upper bounds; an implicit ``+Inf`` bucket
    catches everything else.  ``counts[i]`` is the number of
    observations ``<= buckets[i]`` exclusive of earlier buckets (plain
    per-bucket counts; the exporter renders them cumulatively).
    """

    __slots__ = ("buckets", "counts", "sum", "count")

    def __init__(self, buckets: Sequence[float] = DEFAULT_BUCKETS) -> None:
        ordered = tuple(float(b) for b in buckets)
        if not ordered or list(ordered) != sorted(ordered):
            raise ValueError(f"bucket bounds must be sorted, got {buckets}")
        self.buckets = ordered
        self.counts: List[int] = [0] * (len(ordered) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        index = len(self.buckets)
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                index = i
                break
        self.counts[index] += 1
        self.sum += value
        self.count += 1


def sample_name(name: str, labels: Mapping[str, str]) -> str:
    """Canonical ``name{label="value",...}`` sample key (labels sorted)."""
    if not labels:
        return name
    rendered = ",".join(f'{key}="{labels[key]}"' for key in sorted(labels))
    return f"{name}{{{rendered}}}"


def split_sample_name(key: str) -> Tuple[str, str]:
    """Split a sample key into ``(name, label-body)`` (body may be empty)."""
    if "{" not in key:
        return key, ""
    name, _, rest = key.partition("{")
    return name, rest.rstrip("}")


class MetricsRegistry:
    """Process-local registry of named counters, gauges, and histograms.

    Metrics are keyed by their Prometheus-style sample name (metric name
    plus sorted labels), created on first use, and aggregated across
    registries with :meth:`merge` / :meth:`absorb` -- the operation the
    Monte-Carlo harness uses to fold per-replication registries into one
    sweep-level registry regardless of which worker process produced
    them.
    """

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    def counter(self, name: str, **labels: str) -> Counter:
        """Get or create the counter for ``name`` + ``labels``."""
        key = sample_name(name, labels)
        counter = self._counters.get(key)
        if counter is None:
            counter = self._counters[key] = Counter()
        return counter

    def gauge(self, name: str, **labels: str) -> Gauge:
        """Get or create the gauge for ``name`` + ``labels``."""
        key = sample_name(name, labels)
        gauge = self._gauges.get(key)
        if gauge is None:
            gauge = self._gauges[key] = Gauge()
        return gauge

    def histogram(self, name: str, *, buckets: Sequence[float] = DEFAULT_BUCKETS,
                  **labels: str) -> Histogram:
        """Get or create the histogram for ``name`` + ``labels``.

        ``buckets`` only applies on creation; observing an existing
        histogram with different buckets raises to catch drift between
        instrumentation points sharing a metric name.
        """
        key = sample_name(name, labels)
        histogram = self._histograms.get(key)
        if histogram is None:
            histogram = self._histograms[key] = Histogram(buckets)
        elif histogram.buckets != tuple(float(b) for b in buckets):
            raise ValueError(
                f"histogram {key!r} already registered with buckets "
                f"{histogram.buckets}, got {tuple(buckets)}")
        return histogram

    def __len__(self) -> int:
        return len(self._counters) + len(self._gauges) + len(self._histograms)

    def snapshot(self) -> dict:
        """JSON/pickle-compatible dump of every metric in the registry."""
        return {
            "counters": {key: c.value for key, c in self._counters.items()},
            "gauges": {key: g.value for key, g in self._gauges.items()},
            "histograms": {
                key: {"buckets": list(h.buckets), "counts": list(h.counts),
                      "sum": h.sum, "count": h.count}
                for key, h in self._histograms.items()
            },
        }

    def absorb(self, snapshot: Mapping) -> None:
        """Fold a :meth:`snapshot` into this registry.

        Counters and histogram buckets add; gauges take the snapshot's
        value (last write wins).  Histogram bucket layouts must agree.
        """
        for key, value in snapshot.get("counters", {}).items():
            counter = self._counters.get(key)
            if counter is None:
                counter = self._counters[key] = Counter()
            counter.inc(float(value))
        for key, value in snapshot.get("gauges", {}).items():
            gauge = self._gauges.get(key)
            if gauge is None:
                gauge = self._gauges[key] = Gauge()
            gauge.set(float(value))
        for key, dump in snapshot.get("histograms", {}).items():
            buckets = tuple(float(b) for b in dump["buckets"])
            histogram = self._histograms.get(key)
            if histogram is None:
                histogram = self._histograms[key] = Histogram(buckets)
            elif histogram.buckets != buckets:
                raise ValueError(
                    f"cannot merge histogram {key!r}: bucket layout "
                    f"{buckets} != {histogram.buckets}")
            for i, count in enumerate(dump["counts"]):
                histogram.counts[i] += int(count)
            histogram.sum += float(dump["sum"])
            histogram.count += int(dump["count"])

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold another registry into this one (see :meth:`absorb`)."""
        self.absorb(other.snapshot())

    # Read accessors used by the exporter and tests ----------------------

    def counters(self) -> Dict[str, float]:
        """``{sample name: value}`` of every counter."""
        return {key: c.value for key, c in self._counters.items()}

    def gauges(self) -> Dict[str, float]:
        """``{sample name: value}`` of every gauge."""
        return {key: g.value for key, g in self._gauges.items()}

    def histograms(self) -> Dict[str, Histogram]:
        """``{sample name: Histogram}`` of every histogram."""
        return dict(self._histograms)


#: Whether instrumentation points should record metrics at all.
_ENABLED = False

#: The process-global registry instrumentation points write to.
_REGISTRY = MetricsRegistry()


def metrics_enabled() -> bool:
    """Cheap global check guarding every instrumentation point."""
    return _ENABLED


def enable_metrics(enabled: bool = True) -> None:
    """Turn metric collection on or off process-wide."""
    global _ENABLED
    _ENABLED = bool(enabled)


def global_registry() -> MetricsRegistry:
    """The process-global registry (see :func:`scoped_registry`)."""
    return _REGISTRY


def set_global_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the process-global registry; returns the previous one."""
    global _REGISTRY
    previous = _REGISTRY
    _REGISTRY = registry
    return previous


def reset_metrics() -> None:
    """Fresh empty global registry (test isolation)."""
    set_global_registry(MetricsRegistry())


@contextmanager
def scoped_registry() -> Iterator[MetricsRegistry]:
    """Run a block against a fresh global registry, then restore.

    The Monte-Carlo harness wraps each replication in this scope so the
    replication's metrics can be snapshotted in isolation (and shipped
    back from worker processes on the run's ``RunMetrics``); the parent
    then absorbs every snapshot, which makes sweep-level totals
    identical at every ``--jobs N``.
    """
    fresh = MetricsRegistry()
    previous = set_global_registry(fresh)
    try:
        yield fresh
    finally:
        set_global_registry(previous)
