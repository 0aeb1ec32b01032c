"""Complexity/scaling measurements of the core algorithms.

Verifies the paper's complexity statements empirically:

* the per-user subproblem of Table I is closed form, so one subgradient
  iteration is O(K) -- solve time grows roughly linearly in K;
* the greedy channel allocation's Q-evaluation count stays within the
  paper's O(N^2 M^2) worst case (and far below it with the
  best-channel-per-FBS reduction).
"""

import time

import numpy as np

from benchmarks.conftest import report
from repro.core.dual import DualDecompositionSolver
from repro.core.greedy import GreedyChannelAllocator
from repro.core.problem import SlotProblem, UserDemand
from repro.net.interference import interference_graph_from_edges
from tests.oracle import drive_exact


def make_problem(n_users, n_fbss=1, seed=0):
    rng = np.random.default_rng(seed)
    users = [
        UserDemand(
            user_id=j, fbs_id=1 + j % n_fbss,
            w_prev=26.0 + 8.0 * rng.random(),
            success_mbs=0.5 + 0.4 * rng.random(),
            success_fbs=0.6 + 0.4 * rng.random(),
            r_mbs=float(0.5 + rng.random()),
            r_fbs=float(0.5 + rng.random()))
        for j in range(n_users)
    ]
    return SlotProblem(users=users,
                       expected_channels={i: 2.0 for i in range(1, n_fbss + 1)})


def dual_scaling():
    solver = DualDecompositionSolver()
    rows = []
    for n_users in (2, 8, 32, 128):
        problem = make_problem(n_users)
        start = time.perf_counter()
        solution = solver.solve(problem)
        elapsed = time.perf_counter() - start
        rows.append((n_users, solution.iterations, elapsed))
    return rows


def test_bench_dual_scaling(benchmark):
    rows = benchmark.pedantic(dual_scaling, rounds=1, iterations=1)
    lines = [f"K={n:<5} iterations={iters:<6} wall={elapsed * 1e3:8.2f} ms"
             for n, iters, elapsed in rows]
    report("Scaling: Table I/II solve vs number of users K", "\n".join(lines))
    # 64x more users must not cost anywhere near 64^2 more time
    # (vectorised closed-form subproblems).
    assert rows[-1][2] < rows[0][2] * 64 * 8 + 1.0


def greedy_scaling():
    rows = []
    for n_fbss, n_channels in ((2, 4), (3, 6), (4, 8), (5, 10)):
        chain = interference_graph_from_edges(
            list(range(1, n_fbss + 1)),
            [(i, i + 1) for i in range(1, n_fbss)])
        problem = make_problem(2 * n_fbss, n_fbss=n_fbss, seed=n_fbss)
        posteriors = {m: 0.5 + 0.4 * (m % 3) / 3 for m in range(n_channels)}
        allocator = GreedyChannelAllocator(chain)
        result = drive_exact(allocator.allocate_iter(
            problem, list(range(n_channels)), posteriors))
        worst_case = (n_fbss * n_channels) ** 2
        rows.append((n_fbss, n_channels, result.evaluations, worst_case))
    return rows


def test_bench_greedy_scaling(benchmark):
    rows = benchmark.pedantic(greedy_scaling, rounds=1, iterations=1)
    lines = [f"N={n_fbss} M={n_channels}: Q evaluations {evals:>5} "
             f"(paper worst case O(N^2 M^2) = {worst})"
             for n_fbss, n_channels, evals, worst in rows]
    report("Scaling: Table III greedy Q-evaluations vs (N, M)", "\n".join(lines))
    for _n, _m, evals, worst in rows:
        assert evals <= worst
