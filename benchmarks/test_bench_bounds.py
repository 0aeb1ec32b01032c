"""Section IV-C3 -- greedy optimality bounds (Theorem 2 and eq. (23)).

Regenerates the paper's analytical claims numerically: on simulated slot
problems of the Fig. 5 chain, the greedy objective stays within the
``1/(1 + D_max)`` factor of the true (exhaustively computed) channel-
allocation optimum, and the eq. (23) bound dominates that optimum.
"""

import numpy as np

from benchmarks.conftest import BENCH_SEED, report
from repro.core.bounds import theorem2_factor, tighter_upper_bound
from repro.core.greedy import GreedyChannelAllocator
from repro.experiments.scenarios import interfering_fbs_scenario
from repro.sim.engine import SimulationEngine
from tests.oracle import drive_exact
from tests.reference import closed_form_upper_bound, exhaustive_channel_optimum


def measure_bounds(n_slots=6):
    """Greedy vs exhaustive optimum on engine-generated slot problems."""
    config = interfering_fbs_scenario(n_channels=4, n_gops=1, seed=BENCH_SEED)
    engine = SimulationEngine(config, record_slots=True)
    graph = config.topology.interference_graph
    allocator = GreedyChannelAllocator(graph)
    rows = []
    for _ in range(n_slots):
        record = engine.step()
        available = record.access.available_channels.tolist()
        if not available or len(available) > 4:
            continue
        problem = record.problem.with_expected_channels(
            {i: 0.0 for i in record.problem.fbs_ids})
        posteriors = {m: float(record.access.posteriors[m])
                      for m in range(config.n_channels)}
        greedy = drive_exact(allocator.allocate_iter(problem, available,
                                                     posteriors))
        _best, q_opt = exhaustive_channel_optimum(
            problem, available, posteriors, graph, max_pairs=12)
        rows.append({
            "slot": record.slot,
            "channels": len(available),
            "q_greedy": greedy.trace.q_final,
            "q_opt": q_opt,
            "ub_evaluated": tighter_upper_bound(greedy.trace),
            "ub_closed_form": closed_form_upper_bound(greedy.trace),
            "q_empty": greedy.trace.q_empty,
        })
    return rows


def test_bench_bounds(benchmark):
    rows = benchmark.pedantic(measure_bounds, rounds=1, iterations=1)
    assert rows, "no slot produced a tractable bound instance"

    factor = theorem2_factor(
        interfering_fbs_scenario().topology.interference_graph)
    lines = [f"{'slot':>5} {'|A|':>4} {'Q_greedy':>10} {'Q_opt':>10} "
             f"{'ratio':>7} {'ub_eval':>10} {'ub_(23)':>10}"]
    for row in rows:
        incremental_greedy = row["q_greedy"] - row["q_empty"]
        incremental_opt = row["q_opt"] - row["q_empty"]
        ratio = (incremental_greedy / incremental_opt
                 if incremental_opt > 1e-12 else 1.0)
        lines.append(
            f"{row['slot']:>5} {row['channels']:>4} {row['q_greedy']:>10.5f} "
            f"{row['q_opt']:>10.5f} {ratio:>7.3f} "
            f"{row['ub_evaluated']:>10.5f} {row['ub_closed_form']:>10.5f}")
        # Theorem 2 (on incremental objective) and eq. (23) both hold.
        assert incremental_greedy >= factor * incremental_opt - 1e-7
        assert row["q_opt"] <= row["ub_evaluated"] + 1e-7
        assert row["ub_evaluated"] <= row["ub_closed_form"] + 1e-9
    report(f"Theorem 2 / eq. (23): greedy vs exhaustive optimum "
           f"(guaranteed ratio {factor:.3f})", "\n".join(lines))
