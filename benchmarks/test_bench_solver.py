"""Solver hot-path acceleration: scalar oracle vs vectorized fast path.

Runs the interfering-FBS (fig6-style) scenario twice through the
Monte-Carlo runner -- once on the scalar oracle of ``tests/oracle.py``
(``scalar_path()`` + ``memoize_q=False``, i.e. the literal
pre-optimisation code path) and once with the defaults -- verifies the
two produce bit-identical per-run metrics, and records the speedup into
``BENCH_solver.json`` so the acceleration work keeps a measured
trajectory.

A second leg checks the warm-start mode (``warm_start=True``), which is
deliberately *not* bit-identical: seeding each slot's dual solve with the
previous slot's multipliers changes the iterate path, so the contract is
equal-or-better per-slot objectives, asserted here on a drifting sequence
of slot problems.
"""

import json
from dataclasses import replace
from pathlib import Path

from benchmarks.conftest import BENCH_GOPS, BENCH_RUNS, BENCH_SEED, report
from repro.core.allocator import ProposedAllocator
from repro.core.dual import fast_solve
from repro.core.problem import SlotProblem, UserDemand
from repro.experiments.scenarios import interfering_fbs_scenario
from repro.sim.checkpoint import run_metrics_to_dict
from repro.sim.runner import MonteCarloRunner
from tests.oracle import scalar_path

#: Required engine-level speedup of the accelerated path (ISSUE 3).
MIN_SPEEDUP = 1.5

#: Where the speedup trajectory accumulates (uploaded by the CI job).
BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_solver.json"


def _fingerprint(runs):
    """Deterministic serialisation of a run list for bit-identity checks."""
    return json.dumps([run_metrics_to_dict(run) for run in runs],
                      sort_keys=True)


def _timed_runs(config):
    import time
    start = time.perf_counter()
    runs = MonteCarloRunner(config, n_runs=BENCH_RUNS).run_all()
    return runs, time.perf_counter() - start


def _drifting_problems(n_slots=40, n_users=6, n_fbss=2, seed=BENCH_SEED):
    """Slot problems whose expected-channel counts drift slowly over time.

    Mimics consecutive engine slots (same users, sensing-driven G drift),
    the regime the warm-start contract is written for.
    """
    import numpy as np
    rng = np.random.default_rng(seed)
    users = [
        UserDemand(
            user_id=j, fbs_id=1 + j % n_fbss,
            w_prev=26.0 + 8.0 * rng.random(),
            success_mbs=0.5 + 0.5 * rng.random(),
            success_fbs=0.5 + 0.5 * rng.random(),
            r_mbs=float(rng.random() * 2.0),
            r_fbs=float(rng.random() * 1.5))
        for j in range(n_users)
    ]
    g = {i: 2.0 + float(rng.random()) for i in range(1, n_fbss + 1)}
    problems = []
    for _ in range(n_slots):
        g = {i: min(4.0, max(0.1, v + float(rng.normal(0.0, 0.2))))
             for i, v in g.items()}
        problems.append(SlotProblem(users=users, expected_channels=dict(g)))
    return problems


def _record_trajectory(entry):
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


def test_bench_solver_acceleration(benchmark):
    config = interfering_fbs_scenario(
        n_gops=BENCH_GOPS, seed=BENCH_SEED, scheme="proposed-fast")

    def ab_comparison():
        with scalar_path():
            base_runs, base_s = _timed_runs(replace(config, memoize_q=False))
        accel_runs, accel_s = _timed_runs(config)
        return base_runs, base_s, accel_runs, accel_s

    base_runs, base_s, accel_runs, accel_s = benchmark.pedantic(
        ab_comparison, rounds=1, iterations=1)
    identical = _fingerprint(base_runs) == _fingerprint(accel_runs)
    speedup = base_s / accel_s if accel_s > 0 else float("inf")

    _record_trajectory({
        "benchmark": "solver-acceleration",
        "scenario": "interfering",
        "runs": BENCH_RUNS,
        "gops": BENCH_GOPS,
        "seed": BENCH_SEED,
        "scalar_seconds": round(base_s, 3),
        "vectorized_seconds": round(accel_s, 3),
        "speedup": round(speedup, 3),
        "bit_identical": identical,
    })

    report("Solver acceleration: scalar oracle vs vectorized fast path", "\n".join([
        f"scenario         : interfering FBSs, proposed-fast, "
        f"{BENCH_RUNS} runs x {BENCH_GOPS} GOPs",
        f"scalar oracle    : {base_s:8.2f} s",
        f"vectorized       : {accel_s:8.2f} s",
        f"speedup          : {speedup:8.2f}x (required >= {MIN_SPEEDUP}x)",
        f"bit-identical    : {identical}",
        f"trajectory       : {BENCH_JSON.name}",
    ]))

    assert identical, (
        "accelerated path diverged from the scalar oracle -- the "
        "vectorized solver must be bit-identical with warm starts off")
    assert speedup >= MIN_SPEEDUP, (
        f"expected >= {MIN_SPEEDUP}x speedup from the vectorized path, "
        f"measured {speedup:.2f}x")


def test_bench_solver_warm_start(benchmark):
    problems = _drifting_problems()

    def warm_vs_cold():
        warm_allocator = ProposedAllocator(fast=True, warm_start=True)
        pairs = []
        for problem in problems:
            cold = fast_solve(problem)
            warm = warm_allocator.allocate(problem)
            pairs.append((cold.objective, warm.objective))
        return pairs

    pairs = benchmark.pedantic(warm_vs_cold, rounds=1, iterations=1)
    worse = [(cold, warm) for cold, warm in pairs if warm < cold - 1e-9]
    best_gain = max(warm - cold for cold, warm in pairs)

    report("Warm starts: per-slot objective vs cold solves", "\n".join([
        f"slots            : {len(pairs)} (drifting G, fixed users)",
        f"equal-or-better  : {len(pairs) - len(worse)}/{len(pairs)}",
        f"largest gain     : {best_gain:+.3e} (log-objective)",
    ]))

    assert not worse, (
        f"warm-started solves fell below the cold objective on "
        f"{len(worse)} slot(s); first: cold={worse[0][0]!r} warm={worse[0][1]!r}")
