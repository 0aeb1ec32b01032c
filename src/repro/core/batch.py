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
  (problem, warm start, solver parameters), and the kernel answers it
  with the exact :class:`~repro.core.dual.DualSolution` the single
  solve would have produced.  Requests of one shape share a stack in
  the solver's own loop :func:`repro.core.dual._iterate`, which is
  resumable: :class:`RunningStack` keeps a stack in flight between
  calls, and each ``solve_requests(stack)`` admits the requests that
  joined since the last call into the rows of members that froze,
  iterates until a row freezes, and answers the frozen rows -- the
  lockstep driver's continuous batching.  ``solve_requests(batch)``
  runs one stack per shape to completion with no refills, and a single
  solve is that loop with one member.  **Bit-exactness contract:** rows
  of the stack never interact.  Every elementwise operation computes
  the same bits per element whatever the array shape; the per-station
  usage reduces through one ``np.bincount`` whose per-bucket addition
  order is each row's own (with the literal compressed sum on rows
  where 8 or more users choose the MBS); the movement norm reduces
  along the contiguous last axis; and each row counts its own
  iterations from its admission, so a member that converges at its
  iteration 37 returns the same iterate whether its batch mates run 37
  or 5000 iterations, or joined the stack before or after it.

* Solve *generators* -- :func:`fast_solve_iter` mirrors
  :func:`repro.core.dual.fast_solve` but yields each
  :class:`SolveRequest` instead of solving inline, so a driver can
  interleave many call sites.  :func:`drive` runs such a generator
  sequentially, answering each request with :func:`answer_request`;
  every synchronous solve (``fast_solve``, ``ProposedAllocator.allocate``,
  the greedy and the fallback chain) is ``drive`` over its generator.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, Generator, List, Optional, Sequence, Union

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
    answers a request bit-identically to the caller's own.
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


# -- the solve generator mirroring repro.core.dual.fast_solve -------------


def fast_solve_iter(problem: SlotProblem, *, max_iterations: int = 400,
                    polish: bool = True) -> SolveGenerator:
    """Generator form of :func:`repro.core.dual.fast_solve`.

    The subgradient stage is yielded as a request (batchable); the
    :func:`~repro.core.dual.flip_polish` stage stays sequential -- it is
    a data-dependent local search over exact re-solves and measures a
    few percent of the solve cost.
    """
    solution = yield SolveRequest(problem=problem,
                                  max_iterations=max_iterations)
    if not polish:
        return solution.allocation
    return flip_polish(problem, solution.allocation)


# -- the stacked kernel ---------------------------------------------------


def request_shape(request: SolveRequest) -> tuple:
    """``(n_users, n_stations)``: requests of one shape share a stack."""
    static = request.problem.columns.static
    return len(static), 1 + len(static.fbs_ids)


class RunningStack:
    """Continuous batching: one shape's stack of solves in flight.

    Requests :meth:`join` the stack between resumptions; each call
    ``solve_requests(stack)`` admits them into the loop
    :func:`repro.core.dual._iterate` (refilling the rows of members that
    froze at the last resumption), iterates until at least one row
    freezes, and returns ``(owner, solution)`` for each frozen row.  Its
    ``len()`` is the number of requests waiting to join, so summed over
    resumptions it counts every request exactly once.
    """

    __slots__ = ("joining", "iterations", "row_seconds", "_rows", "_loop")

    def __init__(self) -> None:
        #: ``(request, owner)`` pairs admitted at the next resumption.
        self.joining: List[tuple] = []
        #: Stack iterations run over the stack's lifetime.
        self.iterations = 0
        #: Kernel seconds per row so far: a row in flight from one
        #: reading to the next was charged the difference.
        self.row_seconds = 0.0
        self._rows: Dict[_DualState, tuple] = {}
        self._loop = None

    def join(self, request: SolveRequest, owner: object) -> None:
        self.joining.append((request, owner))

    def __len__(self) -> int:
        return len(self.joining)

    @property
    def width(self) -> int:
        """Rows the next resumption iterates: in flight plus joining."""
        return len(self._rows) + len(self.joining)

    def drain(self) -> List[tuple]:
        """Empty the stack; return every unanswered ``(request, owner)``."""
        pending = list(self._rows.values()) + self.joining
        self._rows = {}
        self.joining = []
        self._loop = None
        return pending

    def _resume(self) -> List[tuple]:
        if not self.width:
            return []
        start = time.perf_counter()
        admitted = [_DualState(request.problem, request.initial_multipliers,
                               step_size=request.step_size,
                               threshold=request.threshold,
                               max_iterations=request.max_iterations,
                               decay_after=request.decay_after)
                    for request, _ in self.joining]
        self._rows.update(zip(admitted, self.joining))
        self.joining = []
        width = len(self._rows)
        if self._loop is None:
            self._loop = _iterate(admitted)
            frozen, ran = next(self._loop)
        else:
            frozen, ran = self._loop.send(admitted)
        self.iterations += ran
        answers = [(self._rows[state][1],
                    state.finish(self._rows[state][0].registry))
                   for state in frozen]
        for state in frozen:
            del self._rows[state]
        self.row_seconds += (time.perf_counter() - start) / width
        return answers


def solve_requests(requests: Union[Sequence[SolveRequest], RunningStack]
                   ) -> list:
    """Answer solve requests with the stacked kernel.

    ``requests`` is either a sequence of :class:`SolveRequest` or a
    :class:`RunningStack`.  A sequence is grouped by
    :func:`request_shape` -- members of a group share one stack, groups
    iterate independently -- and each stack runs until every row has
    frozen, with no refills; the result is one :class:`DualSolution`
    per request, in request order, bit-identical to answering each
    request with :func:`answer_request` (asserted by
    ``tests/core/test_batched_allocation.py``).  A running stack is
    resumed once, and the result is the ``(owner, solution)`` pairs of
    the rows that froze.
    """
    if isinstance(requests, RunningStack):
        return requests._resume()
    results: List[Optional[DualSolution]] = [None] * len(requests)
    stacks: Dict[tuple, RunningStack] = {}
    for index, request in enumerate(requests):
        stack = stacks.setdefault(request_shape(request), RunningStack())
        stack.join(request, index)
    for stack in stacks.values():
        while stack.width:
            for index, solution in stack._resume():
                results[index] = solution
    return results
