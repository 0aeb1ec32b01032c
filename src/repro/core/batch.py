"""Cross-replication batched dual-decomposition kernel.

The per-slot allocation dominates the engine's budget
(BENCH_engine.json), and everything *inside* one solve is already
vectorised -- the remaining stacking dimension is *across* independent
slot problems.  The paper's dual decomposition makes this easy: the
subgradient iteration of Tables I/II touches only its own problem's
arrays, so B independent solves can run as one ``(B, N)``-shaped
iteration with per-member convergence masks.

The module provides two layers:

* :class:`SolveRequest` / :func:`solve_requests` -- the stacked kernel.
  Each request describes one ``DualDecompositionSolver.solve`` call
  (problem, warm start, solver parameters); ``solve_requests`` answers a
  whole batch with the exact :class:`~repro.core.dual.DualSolution` each
  single solve would have produced.  It builds one
  :class:`repro.core.dual._DualState` per request, groups the states by
  shape and runs each group, whatever its width, through the single
  solver's own loop :func:`repro.core.dual._iterate` -- a single solve
  is that loop with one member.  **Bit-exactness contract:** rows of the
  stack never interact.  Every elementwise operation computes the same
  bits per element whatever the array shape; the per-station usage
  reduces through one ``np.bincount`` whose per-bucket addition order is
  each row's own (with the literal compressed sum on rows where 8 or
  more users choose the MBS); the movement norm reduces along the
  contiguous last axis.  Finished members freeze: their rows are removed
  from the stack and never recomputed, so a member that converges at
  iteration 37 returns the same iterate whether its batch mates run 37
  or 5000 iterations.

* Solve *generators* -- :func:`fast_solve_iter` and friends mirror the
  entry points of :mod:`repro.core.dual` but ``yield`` each
  :class:`SolveRequest` instead of solving inline, so a driver can
  interleave many call sites.  :func:`drive` runs such a generator
  sequentially, answering each request with :func:`answer_request`;
  every synchronous solve (``fast_solve``, ``ProposedAllocator.allocate``,
  the greedy and the fallback chain) is ``drive`` over its generator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, Generator, List, Optional, Sequence

from repro.core.dual import (
    DualDecompositionSolver,
    DualSolution,
    _DualState,
    _iterate,
    flip_polish,
)
from repro.core.problem import SlotProblem
from repro.obs.metrics import global_registry, metrics_enabled


@dataclass
class SolveRequest:
    """One deferred ``DualDecompositionSolver.solve`` call.

    Attributes mirror the solver's constructor and ``solve`` arguments;
    ``registry`` captures the requester's metrics registry at creation
    time (the batched kernel runs under the *driver's* registry, but the
    solve belongs to the member replication, so its solver counters must
    land on the member's books).  Requests are only ever created by
    non-strict, non-tracing call sites -- strict solvers and multiplier
    traces call their solver inline.
    """

    problem: SlotProblem
    initial_multipliers: Optional[Dict[int, float]] = None
    max_iterations: int = 400
    step_size: float = 0.02
    threshold: float = 1e-5
    decay_after: int = 400
    registry: Optional[object] = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.registry is None and metrics_enabled():
            self.registry = global_registry()


#: A solve generator: yields requests, returns its final result.
SolveGenerator = Generator[SolveRequest, DualSolution, object]


@lru_cache(maxsize=32)
def _solver_for(step_size: float, threshold: float, max_iterations: int,
                decay_after: int) -> DualDecompositionSolver:
    """Shared solver instances keyed on the request parameters.

    The solver is stateless across calls, so an equivalent instance
    answers a request bit-identically to the caller's own; the cache is
    scoped per scenario by :mod:`repro.core.caches`.
    """
    return DualDecompositionSolver(
        step_size=step_size, threshold=threshold,
        max_iterations=max_iterations, decay_after=decay_after)


def answer_request(request: SolveRequest) -> DualSolution:
    """Solve one request on its own, booking to the request's registry."""
    solver = _solver_for(request.step_size, request.threshold,
                         request.max_iterations, request.decay_after)
    return solver._solve(request.problem, request.initial_multipliers,
                         request.registry)


def drive(gen: SolveGenerator):
    """Run a solve generator to completion, answering requests inline.

    The sequential executor of the generator protocol: each yielded
    :class:`SolveRequest` is solved immediately by :func:`answer_request`,
    so ``drive(some_iter(...))`` is the exact unbatched computation.
    Exceptions raised inside the generator propagate unchanged.
    """
    try:
        request = gen.send(None)
        while True:
            request = gen.send(answer_request(request))
    except StopIteration as stop:
        return stop.value


# -- solve generators mirroring repro.core.dual entry points -------------


def fast_solve_iter(problem: SlotProblem, *, max_iterations: int = 400,
                    polish: bool = True,
                    initial_multipliers: Optional[Dict[int, float]] = None
                    ) -> SolveGenerator:
    """Generator form of :func:`repro.core.dual.fast_solve`.

    The subgradient stage is yielded as a request (batchable); the
    :func:`~repro.core.dual.flip_polish` stage stays sequential -- it is
    a data-dependent local search over exact re-solves and measures a
    few percent of the solve cost.
    """
    solution = yield SolveRequest(problem=problem,
                                  max_iterations=max_iterations,
                                  initial_multipliers=initial_multipliers)
    if not polish:
        return solution.allocation
    return flip_polish(problem, solution.allocation)


def fast_solve_warm_iter(problem: SlotProblem,
                         warm_multipliers: Dict[int, float], *,
                         max_iterations: int = 400,
                         polish: bool = True) -> SolveGenerator:
    """Generator form of :func:`repro.core.dual.fast_solve_warm`.

    The warm store is read when the request is *created* and written
    when the answer arrives; the owning generator is suspended in
    between, so the store cannot be observed half-updated.
    """
    solution = yield SolveRequest(
        problem=problem, max_iterations=max_iterations,
        initial_multipliers=dict(warm_multipliers) or None)
    warm_multipliers.clear()
    warm_multipliers.update(solution.multipliers)
    if not polish:
        return solution.allocation
    return flip_polish(problem, solution.allocation)


# -- the stacked kernel ---------------------------------------------------


def solve_requests(requests: Sequence[SolveRequest]) -> List[DualSolution]:
    """Answer a batch of solve requests with the stacked kernel.

    Requests are grouped by problem shape ``(n_users, n_stations)`` --
    members of a group share their array stack; groups iterate
    independently.  Returns one :class:`DualSolution` per request, in
    request order, bit-identical to answering each request with
    :func:`answer_request` (asserted by
    ``tests/core/test_batched_allocation.py``).
    """
    results: List[Optional[DualSolution]] = [None] * len(requests)
    groups: Dict[tuple, List[tuple]] = {}
    for index, request in enumerate(requests):
        state = _DualState(request.problem, request.initial_multipliers,
                           step_size=request.step_size,
                           threshold=request.threshold,
                           max_iterations=request.max_iterations,
                           decay_after=request.decay_after)
        groups.setdefault((state.n, len(state.stations)), []).append(
            (index, state))
    for entries in groups.values():
        _iterate([state for _, state in entries])
        for index, state in entries:
            results[index] = state.finish(requests[index].registry)
    return results
