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
  single solve would have produced.  **Bit-exactness contract:** every
  elementwise operation (water-filling shares, branch utilities) runs
  stacked -- numpy ufuncs are value-deterministic per element, so a row
  of a ``(B, N)`` array computes the same bits as the lone ``(N,)``
  array -- while every order-sensitive reduction (per-station usage
  sums, multiplier movement) is stacked only in ways that preserve each
  row's exact operand sequence: the compressed MBS-usage sum replays
  numpy's pairwise-summation association column-wise
  (:func:`_masked_row_sums`), the FBS usage accumulates through one
  row-major flattened ``np.add.at`` (rows touch disjoint buckets), and
  the movement norm reduces along the contiguous last axis, which runs
  the same per-row kernel as the single solve's ``.sum()``.  Finished
  members freeze: their rows are removed from the stack and never
  recomputed, so a member that converges at iteration 37 returns the
  same iterate whether its batch mates run 37 or 5000 iterations.
  Prologue, narrow-tail iteration and epilogue are the single solver's
  own (:class:`repro.core.dual._DualState`).

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

import numpy as np

from repro.core.dual import (
    _LAMBDA_EPS,
    _STALL_CHECK_EVERY,
    DualDecompositionSolver,
    DualSolution,
    _DualState,
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


def _masked_row_sums(values: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Per-row ``values[row, mask[row]].sum()``, bit-exactly, stacked.

    The single solver sums the *compressed* selection, so numpy's
    summation order depends on the selected count ``k``: strict
    left-to-right for ``k < 8``, and for ``8 <= k <= 15`` the
    unrolled-by-8 kernel -- eight accumulators over the first eight
    elements, a fixed combine tree, then sequential remainder.  Both
    regimes tolerate zero padding exactly (adding ``+0.0`` to a
    non-negative partial sum is the identity), so replaying the two
    association patterns over columns of the zeroed stack reproduces
    every row's single-solve sum without a Python-level per-row loop -- the
    sequential regime directly, the combine tree after left-justifying
    each row's selection.  Rows wide enough to engage numpy's block
    loop (``n >= 16``) fall back to the literal per-row computation.
    """
    b, n = values.shape
    if n >= 16:
        return np.array([values[row, mask[row]].sum() for row in range(b)])
    counts = mask.sum(axis=1)
    zeroed = np.where(mask, values, 0.0)
    # cumsum is sequential by definition, so its last column is the
    # strict left-to-right sum -- and because the zero padding is exact
    # (the values are non-negative, so no ``-0.0`` can appear and every
    # ``+0.0`` is the identity), the masked-out positions need not even
    # be packed to the right for this regime.
    seq = np.cumsum(zeroed, axis=1)[:, -1]
    if n < 8 or not (counts >= 8).any():
        return seq
    # Some row selected >= 8 elements: left-justify and replay the
    # unrolled-by-8 combine tree ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))
    # with three stride-2 slice adds, then the sequential remainder.
    order = np.argsort(~mask, axis=1, kind="stable")
    packed = np.take_along_axis(zeroed, order, axis=1)
    head = packed[:, :8]
    pairs = head[:, 0::2] + head[:, 1::2]
    quads = pairs[:, 0::2] + pairs[:, 1::2]
    comb = quads[:, 0] + quads[:, 1]
    for j in range(8, n):
        comb = comb + packed[:, j]
    return np.where(counts < 8, seq, comb)


#: Below this active width the stacked iteration costs more than the
#: single-member loop (its per-iteration overhead is ~constant in B), so
#: the group finishes member by member via :meth:`_DualState.run`.  A
#: lone request takes ~1.7x longer through the stack than through the
#: single-member loop (DESIGN.md section 15), so width-1 and width-2
#: groups never enter the stack.
_MIN_STACK_WIDTH = 3


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
    for (_, n_stations), entries in groups.items():
        _solve_group([state for _, state in entries], n_stations)
        for index, state in entries:
            results[index] = state.finish(requests[index].registry)
    return results


def _solve_group(members: List[_DualState], n_stations: int) -> None:
    """Run the masked stacked iteration for one same-shape group.

    All members start at iteration 1 together and only ever *freeze*
    (converge, stall out, or exhaust their budget), so the global
    iteration counter ``t`` equals every active member's own iteration
    count -- the step-decay schedule and the stall-check cadence need no
    per-member clock.  The hot loop is fully stacked (see the module
    docstring for the reduction-order argument); Python-level per-member
    work happens only on the slow path -- a convergence, a budget
    exhaustion, or a stall-check tick every ``_STALL_CHECK_EVERY``
    iterations.  Frozen rows are compressed out of the stack (fancy
    indexing copies values exactly), never recomputed.
    """
    # Stack the per-member constants; row b of each array is member b's
    # (N,) vector, so elementwise ops per row match the single solve.
    w = np.stack([m.w for m in members])
    s_mbs = np.stack([m.s_mbs for m in members])
    s_fbs = np.stack([m.s_fbs for m in members])
    r_mbs = np.stack([m.r_mbs for m in members])
    r_fbs_eff = np.stack([m.r_fbs_eff for m in members])
    cost0 = np.stack([m.cost0 for m in members])
    cost1 = np.stack([m.cost1 for m in members])
    dead0 = np.stack([m.dead0 for m in members])
    dead1 = np.stack([m.dead1 for m in members])
    fbs_pos = np.stack([m.fbs_pos for m in members])
    lam = np.stack([m.lam for m in members])
    steps = np.array([m.step for m in members])
    decays = np.array([float(m.decay_after) for m in members])
    stop_sqs = np.array([m.stop_sq for m in members])
    active = list(members)
    row_offsets = np.arange(len(active))[:, None] * n_stations
    flat_pos = row_offsets + fbs_pos
    min_budget = min(m.max_iterations for m in active)
    min_decay = float(decays.min())
    t = 0
    with np.errstate(over="ignore"):
        while active:
            if len(active) < _MIN_STACK_WIDTH:
                # Too narrow for the stack's fixed per-iteration cost:
                # finish the remaining members one by one on the
                # single-member loop (rows are independent, so this is
                # exact).
                for row, member in enumerate(active):
                    member.run(lam[row], t)
                return
            t += 1
            # Elementwise stage, stacked: shares and branch choices.
            lam0 = lam[:, 0:1]
            lam_user = np.take_along_axis(lam, fbs_pos, axis=1)
            # The multipliers are projected non-negative, so the single
            # solve's epsilon guard (``x if x > eps else eps``) is exactly
            # one ``maximum`` here.  The shares divide by the guarded
            # multipliers but the Lagrangian terms multiply by the *raw*
            # ones, exactly as the single solve does (the distinction
            # matters when a multiplier projects to zero).
            safe_lam0 = np.maximum(lam0, _LAMBDA_EPS)
            safe_lam1 = np.maximum(lam_user, _LAMBDA_EPS)
            rho0 = s_mbs / safe_lam0 - cost0
            rho0 = np.maximum(rho0, 0.0)
            rho0 = np.minimum(rho0, 1.0)
            rho0 = np.where(dead0, 0.0, rho0)
            rho1 = s_fbs / safe_lam1 - cost1
            rho1 = np.maximum(rho1, 0.0)
            rho1 = np.minimum(rho1, 1.0)
            rho1 = np.where(dead1, 0.0, rho1)
            util0 = s_mbs * np.log1p(rho0 * r_mbs / w) - lam0 * rho0
            util1 = s_fbs * np.log1p(rho1 * r_fbs_eff / w) - lam_user * rho1
            choose_mbs = util0 > util1
            # Reduction stage, also stacked, but with the single solve's
            # operand order preserved per row: the MBS usage replays
            # numpy's compressed-sum association (_masked_row_sums), the
            # FBS usage runs one flattened ``np.add.at`` whose row-major
            # element order is each row's own order (rows touch disjoint
            # buckets), and the movement norm reduces along the
            # contiguous last axis -- the same per-row kernel the single
            # solve's ``.sum()`` uses.
            not_choose = ~choose_mbs
            usage = np.zeros((len(active), n_stations))
            usage[:, 0] = _masked_row_sums(rho0, choose_mbs)
            np.add.at(usage.reshape(-1), flat_pos[not_choose],
                      rho1[not_choose])
            if t <= min_decay:
                effective_step = steps
            else:
                effective_step = np.where(t <= decays, steps,
                                          steps * decays / t)
            new_lam = np.maximum(
                0.0, lam - effective_step[:, None] * (1.0 - usage))
            movement = np.square(new_lam - lam).sum(axis=1)
            lam = new_lam
            converged = movement <= stop_sqs
            stall_tick = t % _STALL_CHECK_EVERY == 0
            if not (stall_tick or t >= min_budget or converged.any()):
                continue
            # Slow path: at least one member converged, hit its budget,
            # or reached a stall-check tick.
            finished: List[int] = []
            for row, member in enumerate(active):
                done = False
                if converged[row]:
                    member.converged = True
                    done = True
                elif stall_tick and t > member.decay_after:
                    # Limit-cycle exit, per member.
                    done = member.stalled(choose_mbs[row])
                if not done and t >= member.max_iterations:
                    done = True
                if done:
                    member.iterations = t
                    member.choose_mbs = choose_mbs[row].copy()
                    member.lam = lam[row].copy()
                    finished.append(row)
            if finished:
                keep = np.ones(len(active), dtype=bool)
                keep[finished] = False
                active = [m for row, m in enumerate(active) if keep[row]]
                if not active:
                    break
                w = w[keep]
                s_mbs = s_mbs[keep]
                s_fbs = s_fbs[keep]
                r_mbs = r_mbs[keep]
                r_fbs_eff = r_fbs_eff[keep]
                cost0 = cost0[keep]
                cost1 = cost1[keep]
                dead0 = dead0[keep]
                dead1 = dead1[keep]
                fbs_pos = fbs_pos[keep]
                lam = lam[keep]
                steps = steps[keep]
                decays = decays[keep]
                stop_sqs = stop_sqs[keep]
                row_offsets = np.arange(len(active))[:, None] * n_stations
                flat_pos = row_offsets + fbs_pos
                min_budget = min(m.max_iterations for m in active)
                min_decay = float(decays.min())
