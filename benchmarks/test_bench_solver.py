"""Solver hot-path acceleration: scalar oracle vs vectorized fast path.

Runs the interfering-FBS (fig6-style) scenario twice through the
Monte-Carlo runner -- once on the scalar oracle of ``tests/oracle.py``
(``scalar_path()``, the literal pre-optimisation code path) and once on
the production path -- verifies the two produce bit-identical per-run
metrics, and records the speedup into ``BENCH_solver.json`` so the
acceleration work keeps a measured trajectory.  Both legs run the same
config: the greedy has no ``Q(c)`` memo to switch off, and there is no
warm-start leg because cross-slot warm starts no longer exist.

A second leg records what one iteration of the stacked dual loop costs
at the lockstep widths the simulator runs (``kernel-width``), and a
third what continuous batching saves over one stack per round
(``kernel-continuous``).
"""

import json
import time
from pathlib import Path

import numpy as np

from benchmarks.conftest import BENCH_GOPS, BENCH_RUNS, BENCH_SEED, report
from repro.core.batch import (
    RunningStack,
    SolveRequest,
    answer_request,
    solve_requests,
)
from repro.core.greedy import EVAL_ITERATIONS
from repro.core.problem import SlotProblem, UserDemand
from repro.experiments.scenarios import interfering_fbs_scenario
from repro.sim.checkpoint import run_metrics_to_dict
from repro.sim.runner import MonteCarloRunner
from tests.oracle import scalar_path

#: Required engine-level speedup of the accelerated path (ISSUE 3).
MIN_SPEEDUP = 1.5

#: Where the speedup trajectory accumulates (uploaded by the CI job).
BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_solver.json"

#: Lockstep widths of the kernel-width leg: a lone solve, the narrow
#: tails of a thinning round, and a full fig6 round (10 replications).
KERNEL_WIDTHS = (1, 2, 3, 10)
#: Same-shape groups timed per width, and timed passes over them.
KERNEL_GROUPS = 20
KERNEL_REPEATS = 5
#: Members of the kernel-continuous leg (a fig6 formation), and the
#: range of requests each makes (the greedy's count varies by member).
STREAM_MEMBERS = 10
STREAM_LENGTHS = (20, 60)


def _fingerprint(runs):
    """Deterministic serialisation of a run list for bit-identity checks."""
    return json.dumps([run_metrics_to_dict(run) for run in runs],
                      sort_keys=True)


def _timed_runs(config):
    start = time.perf_counter()
    runs = MonteCarloRunner(config, n_runs=BENCH_RUNS).run_all()
    return runs, time.perf_counter() - start


def _fig6_requests(rng, width):
    """``width`` solve requests shaped like a fig6 slot.

    Nine users in three cells (four stations) under the greedy's
    iteration budget -- the requests the lockstep kernel answers on the
    interfering scenario.
    """
    requests = []
    for _ in range(width):
        users = [
            UserDemand(
                user_id=j, fbs_id=1 + j % 3,
                w_prev=26.0 + 8.0 * rng.random(),
                success_mbs=0.5 + 0.5 * rng.random(),
                success_fbs=0.5 + 0.5 * rng.random(),
                r_mbs=float(rng.random() * 2.0),
                r_fbs=float(rng.random() * 1.5))
            for j in range(9)
        ]
        problem = SlotProblem(users=users, expected_channels={
            i: float(rng.random() * 4.0) for i in (1, 2, 3)})
        requests.append(SolveRequest(problem=problem,
                                     max_iterations=EVAL_ITERATIONS))
    return requests


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
            base_runs, base_s = _timed_runs(config)
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
        "vectorized solver must be bit-identical")
    assert speedup >= MIN_SPEEDUP, (
        f"expected >= {MIN_SPEEDUP}x speedup from the vectorized path, "
        f"measured {speedup:.2f}x")


def _solution_key(solution):
    return (solution.multipliers, solution.iterations, solution.converged,
            solution.allocation.objective)


def _quartiles(samples):
    q1, median, q3 = np.percentile(samples, [25, 50, 75])
    return round(float(median), 2), round(float(q1), 2), round(float(q3), 2)


def test_bench_kernel_width(benchmark):
    rng = np.random.default_rng(BENCH_SEED)
    groups = {width: [_fig6_requests(rng, width)
                      for _ in range(KERNEL_GROUPS)]
              for width in KERNEL_WIDTHS}

    def timed_passes():
        seconds = {width: [] for width in KERNEL_WIDTHS}
        for _ in range(KERNEL_REPEATS):
            # Interleave the widths so drift on the machine hits each.
            for width in KERNEL_WIDTHS:
                start = time.perf_counter()
                for group in groups[width]:
                    solve_requests(group)
                seconds[width].append(time.perf_counter() - start)
        return seconds

    # Untimed pass: answers, the bit-identity check, and warm-up.
    answers = {width: [solve_requests(group) for group in groups[width]]
               for width in KERNEL_WIDTHS}
    identical = all(
        _solution_key(got) == _solution_key(answer_request(request))
        for width in KERNEL_WIDTHS
        for group, solved in zip(groups[width], answers[width])
        for request, got in zip(group, solved))
    seconds = benchmark.pedantic(timed_passes, rounds=1, iterations=1)

    legs = {}
    for width in KERNEL_WIDTHS:
        solved = [s for group in answers[width] for s in group]
        # One stacked iteration per loop trip: a group loops as long as
        # its longest-running member.
        trips = sum(max(s.iterations for s in group)
                    for group in answers[width])
        median, q1, q3 = _quartiles([1e6 * s / trips
                                     for s in seconds[width]])
        legs[str(width)] = {
            "us_per_iteration": median,
            "us_per_iteration_q1": q1,
            "us_per_iteration_q3": q3,
            "stack_iterations": trips,
            "solves": len(solved),
            "iterations_mean": round(
                sum(s.iterations for s in solved) / len(solved), 2),
            "unconverged_frac": round(
                sum(not s.converged for s in solved) / len(solved), 3),
        }

    _record_trajectory({
        "benchmark": "kernel-width",
        "shape": "9 users, 4 stations",
        "max_iterations": EVAL_ITERATIONS,
        "groups": KERNEL_GROUPS,
        "repeats": KERNEL_REPEATS,
        "seed": BENCH_SEED,
        "widths": legs,
        "bit_identical": identical,
    })

    report("Stacked dual kernel: cost of one iteration by width", "\n".join(
        [f"requests         : 9 users, 3 FBSs, max_iterations="
         f"{EVAL_ITERATIONS}; {KERNEL_GROUPS} groups per width, "
         f"median (IQR) of {KERNEL_REPEATS} passes"]
        + [f"width {width:>2}         : {leg['us_per_iteration']:7.2f} us/iter "
           f"({leg['us_per_iteration_q1']:.2f}-{leg['us_per_iteration_q3']:.2f}), "
           f"{leg['solves']} solves, {leg['iterations_mean']} iterations mean, "
           f"{leg['unconverged_frac']:.1%} unconverged"
           for width, leg in ((w, legs[str(w)]) for w in KERNEL_WIDTHS)]
        + [f"bit-identical    : {identical}",
           f"trajectory       : {BENCH_JSON.name}"]))

    assert identical, (
        "the stacked kernel diverged from answering each request alone")


def _rounds(streams):
    """Answer per-member streams one stack per round: round ``k`` stacks
    the ``k``-th request of every member that still has one, and runs
    until its slowest row freezes.  Returns the answers per member and
    the stacked iterations."""
    answers = [[] for _ in streams]
    stacked = 0
    for k in range(max(len(stream) for stream in streams)):
        live = [m for m, stream in enumerate(streams) if k < len(stream)]
        solved = solve_requests([streams[m][k] for m in live])
        stacked += max(s.iterations for s in solved)
        for m, solution in zip(live, solved):
            answers[m].append(solution)
    return answers, stacked


def _refilling(streams):
    """Answer per-member streams through one refilling stack: a member's
    next request joins as soon as its previous one is answered."""
    answers = [[] for _ in streams]
    stack = RunningStack()
    for m, stream in enumerate(streams):
        stack.join(stream[0], m)
    while stack.width:
        for m, solution in solve_requests(stack):
            answers[m].append(solution)
            if len(answers[m]) < len(streams[m]):
                stack.join(streams[m][len(answers[m])], m)
    return answers, stack.iterations


def test_bench_kernel_continuous(benchmark):
    rng = np.random.default_rng(BENCH_SEED)
    streams = [_fig6_requests(rng, int(rng.integers(*STREAM_LENGTHS)))
               for _ in range(STREAM_MEMBERS)]
    ways = {"rounds": _rounds, "refilling": _refilling}

    def timed_passes():
        seconds = {way: [] for way in ways}
        for _ in range(KERNEL_REPEATS):
            # Interleave the two ways so drift on the machine hits both.
            for way, run in ways.items():
                start = time.perf_counter()
                run(streams)
                seconds[way].append(time.perf_counter() - start)
        return seconds

    # Untimed pass: answers, the bit-identity check, and warm-up.
    results = {way: run(streams) for way, run in ways.items()}
    identical = all(
        _solution_key(got) == _solution_key(answer_request(request))
        for answers, _ in results.values()
        for stream, solved in zip(streams, answers)
        for request, got in zip(stream, solved))
    seconds = benchmark.pedantic(timed_passes, rounds=1, iterations=1)

    member_iterations = sum(s.iterations for stream in results["rounds"][0]
                            for s in stream)
    legs = {}
    for way in ways:
        median, q1, q3 = _quartiles([1e6 * s / member_iterations
                                     for s in seconds[way]])
        legs[way] = {
            "us_per_member_iteration": median,
            "us_per_member_iteration_q1": q1,
            "us_per_member_iteration_q3": q3,
            "stack_iterations": results[way][1],
        }

    _record_trajectory({
        "benchmark": "kernel-continuous",
        "shape": "9 users, 4 stations",
        "max_iterations": EVAL_ITERATIONS,
        "members": STREAM_MEMBERS,
        "solves": sum(len(stream) for stream in streams),
        "member_iterations": member_iterations,
        "repeats": KERNEL_REPEATS,
        "seed": BENCH_SEED,
        "ways": legs,
        "bit_identical": identical,
    })

    report("Stacked dual kernel: one stack per round vs a refilling stack",
           "\n".join(
               [f"streams          : {STREAM_MEMBERS} members, "
                f"{sum(len(s) for s in streams)} fig6-shaped requests, "
                f"{member_iterations} member-iterations; median (IQR) of "
                f"{KERNEL_REPEATS} passes"]
               + [f"{way:<17}: {leg['us_per_member_iteration']:6.2f} us per "
                  f"member-iteration ({leg['us_per_member_iteration_q1']:.2f}-"
                  f"{leg['us_per_member_iteration_q3']:.2f}), "
                  f"{leg['stack_iterations']} stacked iterations"
                  for way, leg in legs.items()]
               + [f"bit-identical    : {identical}",
                  f"trajectory       : {BENCH_JSON.name}"]))

    assert identical, (
        "the refilling stack diverged from answering each request alone")
