"""Greedy FBS-channel allocation for interfering FBSs (Table III).

When FBS coverage areas overlap, adjacent FBSs in the interference graph
cannot reuse the same licensed channel (Lemma 4), so channels must be
*allocated* before the convex time-share problem can be solved.  The
paper's greedy algorithm repeatedly picks the FBS-channel pair with the
largest marginal objective gain:

    {i', m'} = argmax_{(i,m) in C} [ Q(c + e_{i,m}) - Q(c) ]

then removes the chosen pair and its conflicting neighbour pairs
``R(i') x {m'}`` from the candidate set.  ``Q(c)`` is the optimal value of
problem (17) given the channel allocation ``c``, evaluated by the Table II
dual algorithm: a solve capped at :data:`EVAL_ITERATIONS` iterations and
warm-started from the slot's previous evaluation, then one full
:func:`~repro.core.dual.fast_solve` at the final ``c``.

Implementation note: ``Q`` is nondecreasing in every ``G_i`` (raising
``G_i`` enlarges the FBS-branch utilities pointwise over an unchanged
feasible set), and ``G_i`` enters only through the sum of allocated
posteriors.  Hence, among candidate pairs sharing the same FBS, the best
is always the remaining channel with the largest posterior ``P^A_m`` -- so
each greedy step needs only ``N`` evaluations of ``Q`` instead of
``N * M``, preserving the exact argmax of Table III at a fraction of the
cost.  The test suite confirms the equivalence by patching
:func:`_best_channel_per_fbs` to return every candidate (the literal full
scan).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.batch import SolveRequest, drive, fast_solve_iter
from repro.core.bounds import GreedyStep, GreedyTrace
from repro.core.problem import Allocation, SlotProblem
from repro.net.interference import InterferenceGraph
from repro.obs.metrics import global_registry, metrics_enabled
from repro.utils.errors import ConfigurationError

#: Subgradient budget of one ``Q(c)`` evaluation.
EVAL_ITERATIONS = 150


@dataclass
class GreedyResult:
    """Outcome of the greedy channel allocation for one slot.

    Attributes
    ----------
    channel_allocation:
        ``{fbs_id: set of channel indices}`` -- the chosen ``c`` matrix.
    expected_channels:
        ``{fbs_id: G_i}`` implied by the allocation and the posteriors.
    allocation:
        The time-share solution of problem (17) at the final ``c``, or
        ``None`` when the caller requested ``final_solve=False`` (e.g.
        the simulation engine, which recomputes the allocation through
        its fallback chain anyway).
    trace:
        Execution trace feeding the bounds of Section IV-C3.
    evaluations:
        Number of ``Q`` evaluations solved (complexity accounting).
    """

    channel_allocation: Dict[int, Set[int]]
    expected_channels: Dict[int, float]
    allocation: Optional[Allocation]
    trace: GreedyTrace
    evaluations: int = 0


class GreedyChannelAllocator:
    """Table III's greedy algorithm.

    ``Q(c)`` is evaluated as the module docstring describes.  There is
    no ``Q(c)`` memo: its key would have to include the warm multipliers,
    which change after every solve, so it would never hit.

    Parameters
    ----------
    interference_graph:
        Graph over FBS ids (Definition 1).
    """

    def __init__(self, interference_graph: InterferenceGraph) -> None:
        self.graph = interference_graph

    def allocate(self, problem: SlotProblem, available_channels: Sequence[int],
                 posteriors: Dict[int, float], *,
                 final_solve: bool = True) -> GreedyResult:
        """Run the greedy allocation for one slot.

        Parameters
        ----------
        problem:
            The slot problem; its ``expected_channels`` are ignored (the
            greedy determines them).
        available_channels:
            The access set ``A(t)`` of licensed-channel indices.
        posteriors:
            ``{channel: P^A_m}`` fused idle posteriors for (at least) the
            available channels.
        final_solve:
            Solve the time-share problem at the final ``c`` (default).
            Pass ``False`` when only the channel allocation is needed;
            ``GreedyResult.allocation`` is then ``None``.

        Raises
        ------
        ConfigurationError
            If an available channel has no posterior, or an FBS with users
            is missing from the interference graph.
        """
        return drive(self.allocate_iter(problem, available_channels,
                                        posteriors, final_solve=final_solve))

    def allocate_iter(self, problem: SlotProblem,
                      available_channels: Sequence[int],
                      posteriors: Dict[int, float], *,
                      final_solve: bool = True):
        """Generator form of :meth:`allocate`.

        Yields one :class:`~repro.core.batch.SolveRequest` per inner
        ``Q(c)`` solve (and the final solve), returning the
        :class:`GreedyResult`.  The evaluations within one slot are
        inherently sequential -- each solve warm-starts from the
        previous one's multipliers -- so batching happens *across*
        engines driving this generator in lockstep, never across
        candidates.
        """
        fbs_ids = problem.fbs_ids
        missing_nodes = [i for i in fbs_ids if i not in self.graph]
        if missing_nodes:
            raise ConfigurationError(
                f"FBS ids {missing_nodes} are not vertices of the interference graph")
        missing_posteriors = [m for m in available_channels if m not in posteriors]
        if missing_posteriors:
            raise ConfigurationError(
                f"posteriors missing for available channels {missing_posteriors}")

        allocation_map: Dict[int, Set[int]] = {i: set() for i in fbs_ids}
        candidates: Set[Tuple[int, int]] = {
            (i, m) for i in fbs_ids for m in available_channels}
        evaluations = 0
        steps: List[GreedyStep] = []

        def g_of(alloc: Dict[int, Set[int]]) -> Dict[int, float]:
            return {i: sum(posteriors[m] for m in channels)
                    for i, channels in alloc.items()}

        # A capped subgradient run per Q(c), warm-started from the
        # previous evaluation's multipliers -- consecutive candidate
        # allocations differ by one channel, so the dual variables barely
        # move between evaluations.
        warm: Dict[int, float] = {}

        def q_of(alloc: Dict[int, Set[int]]):
            nonlocal evaluations
            solution = yield SolveRequest(
                problem=problem.with_expected_channels(g_of(alloc)),
                max_iterations=EVAL_ITERATIONS,
                initial_multipliers=dict(warm) or None)
            evaluations += 1
            warm.update(solution.multipliers)
            return solution.allocation.objective

        q_empty = yield from q_of(allocation_map)
        q_current = q_empty

        def q_with(pair: Tuple[int, int]):
            trial = {k: set(v) for k, v in allocation_map.items()}
            trial[pair[0]].add(pair[1])
            return (yield from q_of(trial))

        while candidates:
            step_evals: Dict[Tuple[int, int], float] = {}
            best_pair = None
            best_q = None
            for pair in _best_channel_per_fbs(candidates, posteriors):
                q_trial = yield from q_with(pair)
                step_evals[pair] = q_trial
                if best_q is None or q_trial > best_q:
                    best_q = q_trial
                    best_pair = pair
            # Table III allocates until the candidate set is empty, even
            # when the marginal gain is zero: a zero-gain channel can
            # still enable a later gain (a user's MBS->FBS switch may need
            # several channels' worth of G_i before it pays off), so
            # stopping early would not be faithful -- and measurably hurts.
            # Tiny negative gains are inner-solver noise; clip to zero.
            gain = max(0.0, best_q - q_current)
            i_star, m_star = best_pair
            # Evaluated bound term: the pruned conflicting pairs are a
            # superset of omega_l (a pair of the optimal solution that
            # conflicts with e(l) but with no earlier selection is, by the
            # same token, still in the candidate set), so summing their
            # actual marginal gains instantiates Lemma 7 directly.  Each
            # term is additionally capped at Delta_l per Lemma 6.
            conflict_gain_sum = 0.0
            pruned = [(neighbor, m_star) for neighbor in self.graph.neighbors(i_star)
                      if (neighbor, m_star) in candidates]
            for pair in pruned:
                q_pair = step_evals.get(pair)
                if q_pair is None:
                    q_pair = yield from q_with(pair)
                conflict_gain_sum += min(max(0.0, q_pair - q_current), gain)
            allocation_map[i_star].add(m_star)
            q_current = max(q_current, best_q)
            steps.append(GreedyStep(
                fbs_id=i_star, channel=m_star, gain=gain,
                degree=int(self.graph.degree(i_star)),
                conflict_gain_sum=conflict_gain_sum))
            candidates.discard((i_star, m_star))
            for pair in pruned:
                candidates.discard(pair)

        expected = g_of(allocation_map)
        final_allocation = None
        if final_solve:
            final_allocation = yield from fast_solve_iter(
                problem.with_expected_channels(expected))
        trace = GreedyTrace(steps=tuple(steps), q_empty=q_empty, q_final=q_current)
        if metrics_enabled():
            registry = global_registry()
            registry.counter("repro_greedy_q_evaluations_total").inc(evaluations)
        return GreedyResult(
            channel_allocation=allocation_map,
            expected_channels=expected,
            allocation=final_allocation,
            trace=trace,
            evaluations=evaluations,
        )


def _best_channel_per_fbs(candidates: Set[Tuple[int, int]],
                          posteriors: Dict[int, float]) -> List[Tuple[int, int]]:
    """For each FBS, its remaining channel with the largest posterior.

    Exact reduction of the Table III argmax (see module docstring); ties
    are broken toward the lower channel index for determinism.
    """
    best: Dict[int, Tuple[int, int]] = {}
    for i, m in sorted(candidates):
        if i not in best or posteriors[m] > posteriors[best[i][1]]:
            best[i] = (i, m)
    return sorted(best.values())
