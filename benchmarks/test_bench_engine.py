"""Engine acceleration: scalar PHY/sensing oracle vs batched backend.

Runs the interfering-FBS scenario through the Monte-Carlo runner twice
-- once on the scalar oracle of ``tests/oracle.py`` (per-observation
``SpectrumSensor.sense`` calls, per-channel fusion, per-link fading
draws) and once on the production batched backend -- verifies the two
produce bit-identical per-run metrics, and records the end-to-end
speedup plus a per-phase breakdown into ``BENCH_engine.json``.

Read alongside ``BENCH_solver.json``: the solver benchmark pins the
allocation phase, this one pins the whole simulation loop.  The
oracle's scalar leg also runs the scalar solver, so the per-phase
breakdown -- summed over the measured runs themselves -- is what
attributes the win: ``sensing``/``access``/``transmission`` are the
batched PHY/sensing backend, ``allocation`` is the solver's share.
"""

import json
from pathlib import Path

from benchmarks.conftest import BENCH_GOPS, BENCH_RUNS, BENCH_SEED, report
from repro import obs
from repro.core import caches
from repro.experiments.scenarios import interfering_fbs_scenario
from repro.sim.checkpoint import run_metrics_to_dict
from repro.sim.runner import MonteCarloRunner
from tests.oracle import scalar_path, unbatched

#: Required end-to-end engine speedup of the batched backend (ISSUE 4).
MIN_SPEEDUP = 1.3

#: Required allocation-phase speedup of cross-replication lockstep
#: batching over the per-replication scalar driver.  Measures 2.0-2.2x
#: at BATCH_BENCH_RUNS on a quiet machine; the floor sits under the
#: noise band so shared CI runners don't flake, and the perf-gate job
#: holds the committed trajectory to the measured value instead.
MIN_BATCHED_ALLOC_SPEEDUP = 1.7

#: Campaign width for the lockstep-batching A/B.  The stacked kernel's
#: win grows with batch width, and replications issue *different* solve
#: counts (the greedy allocator's evaluation count is data-dependent),
#: so early-finishing members thin the later rounds -- a too-small
#: campaign measures mostly that tail.  Real campaigns run tens of
#: replications (EXPERIMENTS.md; MAX_BATCH is 32), so benching at
#: fewer than 10 would understate the production width.
BATCH_BENCH_RUNS = max(BENCH_RUNS, 10)

_REPO_ROOT = Path(__file__).resolve().parent.parent

#: Where the speedup trajectory accumulates (uploaded by the CI job).
BENCH_JSON = _REPO_ROOT / "BENCH_engine.json"

#: Telemetry artifacts of the tracing-overhead leg (uploaded by CI).
BENCH_TRACE = _REPO_ROOT / "BENCH_trace.jsonl"
BENCH_METRICS = _REPO_ROOT / "BENCH_metrics.prom"


def _fingerprint(runs):
    """Deterministic serialisation of a run list for bit-identity checks."""
    return json.dumps([run_metrics_to_dict(run) for run in runs],
                      sort_keys=True)


def _timed_runs(config, n_runs=BENCH_RUNS):
    import time
    start = time.perf_counter()
    runs = MonteCarloRunner(config, n_runs=n_runs).run_all()
    return runs, time.perf_counter() - start


def _append_history(entry):
    """Append one measurement to the ``BENCH_engine.json`` trajectory."""
    history = []
    if BENCH_JSON.exists():
        try:
            history = json.loads(BENCH_JSON.read_text())
        except (json.JSONDecodeError, OSError):
            history = []
    if not isinstance(history, list):
        history = [history]
    history.append(entry)
    BENCH_JSON.write_text(json.dumps(history, indent=2, sort_keys=True) + "\n")


def _phase_seconds(runs):
    """Per-phase seconds summed over the measured runs."""
    totals = {}
    for run in runs:
        for phase, seconds in run.phase_seconds.items():
            totals[phase] = totals.get(phase, 0.0) + seconds
    return {phase: round(seconds, 3)
            for phase, seconds in sorted(totals.items())}


def test_bench_engine_acceleration(benchmark):
    config = interfering_fbs_scenario(
        n_gops=BENCH_GOPS, seed=BENCH_SEED, scheme="proposed-fast")

    def ab_comparison():
        with scalar_path():
            base_runs, base_s = _timed_runs(config)
        accel_runs, accel_s = _timed_runs(config)
        return base_runs, base_s, accel_runs, accel_s

    base_runs, base_s, accel_runs, accel_s = benchmark.pedantic(
        ab_comparison, rounds=1, iterations=1)
    identical = _fingerprint(base_runs) == _fingerprint(accel_runs)
    speedup = base_s / accel_s if accel_s > 0 else float("inf")
    scalar_phases = _phase_seconds(base_runs)
    batched_phases = _phase_seconds(accel_runs)

    _append_history({
        "benchmark": "engine-acceleration",
        "scenario": "interfering",
        "runs": BENCH_RUNS,
        "gops": BENCH_GOPS,
        "seed": BENCH_SEED,
        "scalar_seconds": round(base_s, 3),
        "batched_seconds": round(accel_s, 3),
        "speedup": round(speedup, 3),
        "bit_identical": identical,
        "scalar_phase_seconds": scalar_phases,
        "batched_phase_seconds": batched_phases,
    })

    phase_rows = [
        f"{phase:<13}: {scalar_phases.get(phase, 0.0):7.3f} s -> "
        f"{batched_phases.get(phase, 0.0):7.3f} s"
        for phase in sorted(set(scalar_phases) | set(batched_phases))
    ]
    report("Engine acceleration: scalar PHY/sensing oracle vs batched backend",
           "\n".join([
               f"scenario         : interfering FBSs, proposed-fast, "
               f"{BENCH_RUNS} runs x {BENCH_GOPS} GOPs",
               f"scalar oracle    : {base_s:8.2f} s",
               f"batched backend  : {accel_s:8.2f} s",
               f"speedup          : {speedup:8.2f}x (required >= {MIN_SPEEDUP}x)",
               f"bit-identical    : {identical}",
               f"phase breakdown ({BENCH_RUNS} measured runs, "
               f"scalar -> batched):",
               *phase_rows,
               f"trajectory       : {BENCH_JSON.name}",
           ]))

    assert identical, (
        "batched engine backend diverged from the scalar oracle -- the "
        "two paths must consume the RNG streams identically and produce "
        "bit-identical run metrics")
    assert speedup >= MIN_SPEEDUP, (
        f"expected >= {MIN_SPEEDUP}x end-to-end speedup from the batched "
        f"PHY/sensing backend, measured {speedup:.2f}x")


def test_bench_batched_allocation(benchmark):
    """Cross-replication lockstep batching vs the per-replication driver.

    Both legs run the production backend; the baseline runs each
    replication on its own (``tests.oracle.unbatched``), so the delta is
    exactly the lockstep kernel: one stacked subgradient iteration
    answering B sibling replications' solve requests per round instead
    of B sequential solves.  The
    allocation-phase speedup is the headline number (batching touches
    nothing else); solver caches are re-scoped before each leg so both
    start equally cold.
    """
    config = interfering_fbs_scenario(
        n_gops=BENCH_GOPS, seed=BENCH_SEED, scheme="proposed-fast")

    def ab_comparison():
        caches.scope_to(("bench-alloc", "unbatched"))
        with unbatched():
            base_runs, base_s = _timed_runs(config, BATCH_BENCH_RUNS)
        caches.scope_to(("bench-alloc", "batched"))
        batched_runs, batched_s = _timed_runs(config, BATCH_BENCH_RUNS)
        return base_runs, base_s, batched_runs, batched_s

    base_runs, base_s, batched_runs, batched_s = benchmark.pedantic(
        ab_comparison, rounds=1, iterations=1)
    identical = _fingerprint(base_runs) == _fingerprint(batched_runs)
    base_alloc = sum(r.phase_seconds.get("allocation", 0.0)
                     for r in base_runs)
    batched_alloc = sum(r.phase_seconds.get("allocation", 0.0)
                        for r in batched_runs)
    alloc_speedup = (base_alloc / batched_alloc
                     if batched_alloc > 0 else float("inf"))
    total_speedup = base_s / batched_s if batched_s > 0 else float("inf")

    # Lockstep driver counters, from a short metered (untimed) campaign.
    from repro.obs.metrics import enable_metrics, reset_metrics, \
        scoped_registry
    enable_metrics(True)
    try:
        with scoped_registry() as registry:
            caches.scope_to(("bench-alloc", "metered"))
            MonteCarloRunner(config, n_runs=BATCH_BENCH_RUNS).run_all()
            counters = registry.counters()
    finally:
        enable_metrics(False)
        reset_metrics()
    lockstep = {
        "groups": int(counters.get("repro_lockstep_groups_total", 0)),
        "members": int(counters.get(
            "repro_lockstep_batch_members_total", 0)),
        "rounds": int(counters.get("repro_lockstep_rounds_total", 0)),
        "batched_solves": int(counters.get(
            "repro_lockstep_batched_solves_total", 0)),
        "escapes": int(counters.get("repro_lockstep_escapes_total", 0)),
    }

    _append_history({
        "benchmark": "allocation-batched",
        "scenario": "interfering",
        "runs": BATCH_BENCH_RUNS,
        "gops": BENCH_GOPS,
        "seed": BENCH_SEED,
        "unbatched_seconds": round(base_s, 3),
        "batched_seconds": round(batched_s, 3),
        "unbatched_alloc_seconds": round(base_alloc, 3),
        "batched_alloc_seconds": round(batched_alloc, 3),
        "alloc_speedup": round(alloc_speedup, 3),
        "end_to_end_speedup": round(total_speedup, 3),
        "bit_identical": identical,
        "lockstep": lockstep,
    })

    report("Batched allocation: per-replication driver vs lockstep kernel",
           "\n".join([
               f"scenario         : interfering FBSs, proposed-fast, "
               f"{BATCH_BENCH_RUNS} runs x {BENCH_GOPS} GOPs",
               f"unbatched        : {base_s:8.2f} s "
               f"(allocation {base_alloc:7.2f} s)",
               f"batched          : {batched_s:8.2f} s "
               f"(allocation {batched_alloc:7.2f} s)",
               f"allocation speedup: {alloc_speedup:7.2f}x "
               f"(required >= {MIN_BATCHED_ALLOC_SPEEDUP}x)",
               f"end-to-end speedup: {total_speedup:7.2f}x",
               f"bit-identical    : {identical}",
               f"lockstep         : {lockstep['groups']} group(s), "
               f"{lockstep['members']} members, {lockstep['rounds']} rounds, "
               f"{lockstep['batched_solves']} batched solves, "
               f"{lockstep['escapes']} escapes",
               f"trajectory       : {BENCH_JSON.name}",
           ]))

    assert identical, (
        "lockstep-batched campaign diverged from the per-replication "
        "driver -- the stacked kernel must answer every solve request "
        "bit-identically to the scalar solver")
    assert lockstep["batched_solves"] > 0, (
        "the metered campaign never reached the stacked kernel -- "
        "lockstep batching did not engage")
    assert alloc_speedup >= MIN_BATCHED_ALLOC_SPEEDUP, (
        f"expected >= {MIN_BATCHED_ALLOC_SPEEDUP}x allocation-phase "
        f"speedup from lockstep batching, measured {alloc_speedup:.2f}x")


def test_bench_tracing_overhead(benchmark):
    """Observability cost: the same production run with tracing off vs on.

    The tracing-on leg runs under the full surface (``--profile`` spans
    plus metrics); both legs must produce bit-identical run metrics --
    telemetry is out-of-band by construction (DESIGN.md section 12) and
    this benchmark would catch any instrumentation point that leaks into
    the simulation.  The measured overhead lands in ``BENCH_engine.json``
    and the produced trace/metrics files are kept as CI artifacts.
    (The *disabled*-path cost -- obs imported but never configured, the
    state every other benchmark and the tier-1 suite runs in -- is the
    tracing-off leg here, i.e. it is already included in every number
    this file reports.)
    """
    config = interfering_fbs_scenario(
        n_gops=BENCH_GOPS, seed=BENCH_SEED, scheme="proposed-fast")
    for artifact in (BENCH_TRACE, BENCH_METRICS):
        if artifact.exists():
            artifact.unlink()

    def ab_comparison():
        # Batching off in both legs: an active tracer stands down from
        # lockstep (span nesting assumes one replication at a time), so
        # holding the driver constant isolates the instrumentation cost
        # from the batching win measured by test_bench_batched_allocation.
        with unbatched():
            off_runs, off_s = _timed_runs(config)
            obs.configure(trace_path=str(BENCH_TRACE),
                          metrics_path=str(BENCH_METRICS), profile=True)
            try:
                on_runs, on_s = _timed_runs(config)
            finally:
                obs.shutdown()
        return off_runs, off_s, on_runs, on_s

    off_runs, off_s, on_runs, on_s = benchmark.pedantic(
        ab_comparison, rounds=1, iterations=1)
    identical = _fingerprint(off_runs) == _fingerprint(on_runs)
    overhead_pct = (on_s - off_s) / off_s * 100 if off_s > 0 else 0.0
    trace_events = len(obs.read_trace(str(BENCH_TRACE)))

    _append_history({
        "benchmark": "tracing-overhead",
        "scenario": "interfering",
        "runs": BENCH_RUNS,
        "gops": BENCH_GOPS,
        "seed": BENCH_SEED,
        "tracing_off_seconds": round(off_s, 3),
        "tracing_on_seconds": round(on_s, 3),
        "tracing_overhead_pct": round(overhead_pct, 2),
        "trace_events": trace_events,
        "bit_identical": identical,
    })

    report("Observability overhead: tracing+metrics off vs on (accelerated)",
           "\n".join([
               f"scenario         : interfering FBSs, proposed-fast, "
               f"{BENCH_RUNS} runs x {BENCH_GOPS} GOPs",
               f"tracing off      : {off_s:8.2f} s",
               f"tracing on       : {on_s:8.2f} s  (profile spans + metrics)",
               f"overhead         : {overhead_pct:8.2f} %",
               f"trace events     : {trace_events}",
               f"bit-identical    : {identical}",
               f"artifacts        : {BENCH_TRACE.name}, {BENCH_METRICS.name}",
           ]))

    assert identical, (
        "run metrics diverged with tracing enabled -- an instrumentation "
        "point is leaking into the simulation (RNG stream or results)")
