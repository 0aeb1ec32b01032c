"""The distributed dual-decomposition algorithm (Tables I and II).

Problem (12) (single FBS) and problem (17) (multiple non-interfering
FBSs) are solved by Lagrangian dual decomposition: relax the slot-simplex
constraints with multipliers ``lambda = [lambda_0, lambda_1..lambda_N]``
(one per base station), let every CR user solve its own subproblem (14) in
closed form using only local information, and let the MBS update the
multipliers with a projected subgradient step (eqs. (16), (18)-(19)):

    lambda_i(tau+1) = [lambda_i(tau) - s * (1 - sum_j rho*_{i,j}(tau))]^+

The iteration stops when ``sum_i (lambda_i(tau+1) - lambda_i(tau))^2`` is
below the prescribed threshold ``phi`` (Tables I/II, step 11).

Per-user subproblem (Table I, steps 3-8).  For given multipliers the
stationary point of ``L_j`` in each branch is closed-form water-filling:

    rho0_j = [ sP0_j / lambda_0 - W_j / R0_j ]^+
    rhoi_j = [ sPi_j / lambda_i - W_j / (G_i R1_j) ]^+

and the user picks the branch (MBS vs FBS) whose Lagrangian term is
larger; by Theorem 1 the optimal choice is binary.

Two solvers are provided:

* :class:`DualDecompositionSolver` -- the faithful subgradient iteration,
  including the multiplier trace plotted in Fig. 4(a).
* :func:`fast_solve` -- a capped subgradient run followed by exact
  single-flip local search (:func:`flip_polish`), used where many
  evaluations are needed (the greedy channel allocation of Table III
  evaluates ``Q(c)`` hundreds of times per slot).  It returns the same
  solutions as the full subgradient method on the paper's scenarios and
  is validated against the exhaustive oracle in the test suite.

Both run one subgradient loop, :func:`_iterate`, over :class:`_DualState`
members (the per-problem prologue and the primal-recovery epilogue).
The loop iterates any number of same-shape problems as one ``(B, 2n)``
stack, each row holding a problem's MBS branch and FBS branch side by
side, and it is resumable: a frozen row can be refilled in place by a
new member.  A single solve is a stack of one, and the
cross-replication kernel (:mod:`repro.core.batch`) keeps one running
stack per shape.  The scalar
reference implementations these are validated against live in the test
suite (``tests/oracle.py``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Generator, List, Optional, Tuple

import numpy as np

from repro.core.problem import Allocation, SlotProblem
from repro.core.reference import compile_slot_problem, solve_given_assignment
from repro.obs.metrics import ITERATION_BUCKETS, global_registry, metrics_enabled
from repro.obs.trace import active_tracer
from repro.utils.errors import ConfigurationError, ConvergenceError

#: Multipliers below this are treated as zero when inverting (avoids
#: division warnings; the resulting share is clipped to 1 anyway).
_LAMBDA_EPS = 1e-300

#: Limit-cycle detection: past ``decay_after``, recover the primal every
#: this many iterations and stop after this many stagnant recoveries.
_STALL_CHECK_EVERY = 100
_STALL_PATIENCE = 3


@dataclass
class DualSolution:
    """Result of a dual-decomposition solve.

    Attributes
    ----------
    allocation:
        The recovered primal allocation (feasible by construction).
    multipliers:
        Final dual variables, ``{0: lambda_0, fbs_id: lambda_i, ...}``.
    iterations:
        Subgradient steps performed.
    converged:
        Whether the stopping rule fired before the iteration budget.
    trace:
        Optional per-iteration multiplier history (iterations x stations),
        recorded when ``record_trace=True``; this is the data behind
        Fig. 4(a).
    trace_stations:
        Column labels of ``trace`` (station ids: 0 for the MBS).
    """

    allocation: Allocation
    multipliers: Dict[int, float]
    iterations: int
    converged: bool
    trace: Optional[np.ndarray] = None
    trace_stations: Optional[List[int]] = None


class DualDecompositionSolver:
    """Projected-subgradient dual solver (Tables I and II).

    Parameters
    ----------
    step_size:
        Relative step ``s`` -- scaled by the problem's natural multiplier
        magnitude so one configuration works across bandwidth scales.
    threshold:
        Relative stopping threshold ``phi``; the iteration stops when the
        squared multiplier movement falls below ``(threshold * scale)^2``.
    max_iterations:
        Iteration budget.
    decay_after:
        Iteration after which the step size decays as ``1/tau`` (a
        standard diminishing-step schedule).  The paper uses a fixed
        "sufficiently small" step; a fixed step can limit-cycle when user
        branch choices flip persistently, so after ``decay_after``
        fixed-step iterations the schedule starts shrinking, which
        guarantees the Table I stopping rule eventually fires.  Set it
        above ``max_iterations`` to reproduce the paper's fixed step
        exactly.
    strict:
        When ``True``, raise :class:`ConvergenceError` if the budget is
        exhausted; otherwise return the best iterate found.
    record_trace:
        Keep the full multiplier history (Fig. 4(a)).
    """

    def __init__(self, *, step_size: float = 0.02, threshold: float = 1e-5,
                 max_iterations: int = 5000, decay_after: int = 400,
                 strict: bool = False, record_trace: bool = False) -> None:
        if step_size <= 0:
            raise ConfigurationError(f"step_size must be positive, got {step_size}")
        if threshold <= 0:
            raise ConfigurationError(f"threshold must be positive, got {threshold}")
        if max_iterations <= 0:
            raise ConfigurationError(
                f"max_iterations must be positive, got {max_iterations}")
        if decay_after <= 0:
            raise ConfigurationError(
                f"decay_after must be positive, got {decay_after}")
        self.step_size = float(step_size)
        self.threshold = float(threshold)
        self.max_iterations = int(max_iterations)
        self.decay_after = int(decay_after)
        self.strict = bool(strict)
        self.record_trace = bool(record_trace)

    def solve(self, problem: SlotProblem,
              initial_multipliers: Optional[Dict[int, float]] = None) -> DualSolution:
        """Run the distributed algorithm on one slot problem.

        Parameters
        ----------
        problem:
            The slot problem (single- or multi-FBS).
        initial_multipliers:
            Warm-start values ``{station_id: lambda}``; stations not listed
            start from the automatic scale estimate.
        """
        return self._solve(problem, initial_multipliers,
                           global_registry() if metrics_enabled() else None)

    def _solve(self, problem: SlotProblem,
               initial_multipliers: Optional[Dict[int, float]],
               registry) -> DualSolution:
        """:meth:`solve`, booking the solver counters to ``registry``.

        A solve request answered on behalf of another replication passes
        that replication's registry, so the counters land on its books
        whichever registry is global at the time.
        """
        # Observability: one global read; None on the hot path with
        # tracing off.
        tracer = active_tracer()
        if tracer is not None and not tracer.collect_phases:
            tracer = None
        solve_start = time.perf_counter() if tracer is not None else 0.0

        state = _DualState(problem, initial_multipliers,
                           step_size=self.step_size, threshold=self.threshold,
                           max_iterations=self.max_iterations,
                           decay_after=self.decay_after)
        trace = [state.lam.copy()] if self.record_trace else None
        for _ in _iterate([state], trace):
            pass
        solution = state.finish(registry)

        if tracer is not None:
            tracer.emit_span("dual-solve", kind="solver",
                             seconds=time.perf_counter() - solve_start,
                             iterations=state.iterations,
                             converged=state.converged,
                             stations=len(state.stations))
        if not state.converged and self.strict:
            raise ConvergenceError(
                f"dual decomposition did not converge in {self.max_iterations} "
                f"iterations", iterations=state.iterations,
                residual=state.movement)
        if trace is not None:
            solution.trace = np.array(trace)
            solution.trace_stations = list(state.stations)
        return solution


class _DualState:
    """One dual solve: hoisted problem constants, iterate, exit bookkeeping.

    ``__init__`` is the prologue and :meth:`finish` the epilogue (solver
    counters and primal recovery); :func:`_iterate` runs the subgradient
    loop over any number of same-shape states as one ``(B, .)`` stack.
    :meth:`DualDecompositionSolver.solve` runs it with one member, the
    stacked kernel (:mod:`repro.core.batch`) with a running stack per
    shape whose rows are refilled as members freeze.

    Every per-user constant is one ``(2n,)`` row holding both branches:
    the MBS branch in columns ``[0, n)``, the FBS branch in ``[n, 2n)``.
    """

    __slots__ = (
        "problem", "user_ids", "stations", "station_pos", "n",
        "s", "cost", "r", "w2", "dead", "flat2", "lam", "step", "stop_sq",
        "max_iterations", "decay_after", "iterations", "converged",
        "movement", "choose_mbs", "best_recovered", "stagnant_checks",
    )

    def __init__(self, problem: SlotProblem,
                 initial_multipliers: Optional[Dict[int, float]], *,
                 step_size: float, threshold: float, max_iterations: int,
                 decay_after: int) -> None:
        self.problem = problem
        columns = problem.columns
        static = columns.static
        stations = [0] + static.fbs_ids
        self.stations = stations
        station_pos = {station: pos for pos, station in enumerate(stations)}
        self.station_pos = station_pos

        # Vectorise the slot's columns once, both branches side by side:
        # success probability, rate slope (G_i R1_j on the FBS side),
        # and the PSNR state repeated per branch.
        self.user_ids = static.user_ids
        self.n = len(static)
        fbs_of = static.fbs_id
        g = problem.expected_channels
        self.s = np.array(static.success_mbs + static.success_fbs)
        self.r = np.array(columns.r_mbs
                          + [g[fbs_id] * r for fbs_id, r
                             in zip(fbs_of, columns.r_fbs)])
        w = np.array(columns.w_prev)
        self.w2 = np.concatenate([w, w])
        # Multiplier index of each branch: the MBS, then the user's FBS.
        self.flat2 = np.array([0] * self.n
                              + [station_pos[fbs_id] for fbs_id in fbs_of])

        # Natural multiplier scale: marginal utility of the first unit of
        # share, averaged over users/branches.  Problem (12) is invariant
        # to a common rescaling of (W, R), which rescales lambda by the
        # inverse; anchoring step and threshold to this scale makes the
        # solver configuration dimensionless.
        marginals = self.s * self.r / self.w2
        positive = marginals[marginals > 0]
        scale = float(positive.mean()) if positive.size else 1.0
        self.step = float(step_size) * scale
        self.stop_sq = (float(threshold) * scale) ** 2

        lam = np.full(len(stations), scale)
        if initial_multipliers:
            for station, value in initial_multipliers.items():
                if station in self.station_pos:
                    lam[self.station_pos[station]] = max(0.0, float(value))
        self.lam = lam

        # Loop invariants of the closed-form shares (Table I step 3):
        # the dead-branch mask (no rate or no success) and W/slope.
        live = (self.r > 0) & (self.s > 0)
        self.dead = ~live
        with np.errstate(over="ignore"):
            self.cost = self.w2 / np.where(live, self.r, 1.0)

        self.max_iterations = int(max_iterations)
        self.decay_after = int(decay_after)
        self.iterations = 0
        self.converged = False
        self.movement = float("inf")
        self.choose_mbs = np.zeros(self.n, dtype=bool)
        self.best_recovered = None
        self.stagnant_checks = 0

    def stalled(self, choose_mbs: np.ndarray) -> bool:
        """Limit-cycle exit: whether the recovered primal has stagnated.

        When branch choices flip persistently the multiplier movement
        never vanishes, but the recovered primal stops improving -- track
        the best assignment seen and report a stall once it has not
        improved for ``_STALL_PATIENCE`` consecutive checks.
        """
        assignment = {self.user_ids[j] for j in range(self.n)
                      if choose_mbs[j]}
        candidate = solve_given_assignment(self.problem, assignment)
        if self.best_recovered is None or (
                candidate.objective > self.best_recovered.objective + 1e-12):
            self.best_recovered = candidate
            self.stagnant_checks = 0
            return False
        self.stagnant_checks += 1
        return self.stagnant_checks >= _STALL_PATIENCE

    def finish(self, registry) -> DualSolution:
        """Book the solver counters to ``registry`` and recover the primal."""
        if registry is not None:
            registry.counter("repro_solver_solves_total",
                             converged=str(self.converged).lower()).inc()
            registry.counter("repro_solver_iterations_total").inc(
                self.iterations)
            registry.histogram("repro_solver_iterations",
                               buckets=ITERATION_BUCKETS).observe(
                                   self.iterations)
        # Primal recovery: the subgradient iterate is approximately
        # complementary; re-solving the (convex) problem for the final
        # binary assignment yields an exactly feasible, exactly optimal
        # allocation for that assignment.
        mbs_set = {self.user_ids[j] for j in range(self.n)
                   if self.choose_mbs[j]}
        allocation = solve_given_assignment(self.problem, mbs_set)
        if self.best_recovered is not None and (
                self.best_recovered.objective > allocation.objective):
            allocation = self.best_recovered
        return DualSolution(
            allocation=allocation,
            multipliers={station: float(self.lam[self.station_pos[station]])
                         for station in self.stations},
            iterations=self.iterations,
            converged=self.converged,
        )


#: numpy sums a compressed selection of fewer than this many elements
#: strictly left to right; from this count on it switches to an
#: unrolled eight-accumulator combine tree.
_SEQUENTIAL_SUM_LIMIT = 8


def _masked_row_sums(values: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Per-row ``values[row, mask[row]].sum()``: the literal compressed sum.

    The dense-row fix-up of :func:`_iterate`: its one ``bincount`` adds
    each station's shares strictly left to right, which is the single
    solve's MBS sum only while fewer than ``_SEQUENTIAL_SUM_LIMIT``
    users choose the MBS.  Rows at or above that count get this sum.
    """
    return np.array([values[row, mask[row]].sum()
                     for row in range(len(values))])


def _next_event(member: _DualState, t: int) -> int:
    """The first iteration after ``t`` at which ``member`` may freeze
    without converging: its budget, or a stall-check tick past
    ``decay_after``."""
    tick = (max(t, member.decay_after) // _STALL_CHECK_EVERY + 1) \
        * _STALL_CHECK_EVERY
    return min(member.max_iterations, tick)


def _row_values(member: _DualState) -> tuple:
    """``member``'s row of each per-row stack array: its constants and
    its multipliers."""
    return (member.s, member.cost, member.r, member.w2, member.dead,
            member.flat2, member.lam, (member.step,),
            (float(member.decay_after),), member.stop_sq)


def _row_arrays(members: List[_DualState]) -> List[np.ndarray]:
    """The per-row stack arrays of ``members``, one row each."""
    return [np.array(column)
            for column in zip(*map(_row_values, members))]


#: A resumable subgradient loop: yields the members that froze at each
#: freeze event with the stack iterations run since it was resumed, and
#: takes the members joining the stack when it is resumed.
DualLoop = Generator[Tuple[List[_DualState], int],
                     Optional[List[_DualState]], None]


def _iterate(members: List[_DualState],
             trace: Optional[List[np.ndarray]] = None) -> DualLoop:
    """Run the Table I/II subgradient loop for same-shape states as one stack.

    A resumable loop over fixed-capacity rows: row ``b`` of every
    ``(B, .)`` array is one member's iteration, and the stack may have
    any width, one included.  The loop runs until at least one member
    *freezes* (converges, stalls out, or exhausts its budget), yields
    the frozen members and the stack iterations it ran, and is resumed
    with ``send(joining)``: each joining member is admitted into a
    frozen member's row in place, and the stack shrinks only when fewer
    members join than froze (or grows when more do).  Iterating the
    generator plainly (``send(None)``) admits nobody, and the loop ends
    when every row has frozen -- the single solve and the batch answer
    API run it that way.

    Rows are independent, so each keeps its own iteration count
    ``t = T - begun``: the stack counter ``T`` minus the stack
    iteration the row was admitted after.  The decayed step, the stall
    ticks and the budget all read a row's own ``t``, and each row keeps
    the stack iteration of its next event (its budget or its next stall
    tick past ``decay_after``), so the common iteration tests one scalar
    against the earliest event plus ``count_nonzero`` of the converged
    rows.  A frozen member gets its final iterate, branch choices and
    exit state, and its row is handed on; a member that stops at its
    iteration 37 ends with the same bits whether its batch mates run 37
    or 5000 iterations, started before it or after.  ``trace``
    (Fig. 4(a), width 1 only) receives a copy of every new iterate.

    Bit-exactness against the one-member loop rests on three facts.
    Elementwise ufuncs compute the same bits per element whatever the
    array shape.  The one ``np.bincount`` adds each bucket's weights in
    element order from ``+0.0`` -- the per-station order of the single
    solve's ``np.add.at``, and for the MBS bucket the left-to-right sum
    that numpy's compressed ``.sum()`` performs below
    ``_SEQUENTIAL_SUM_LIMIT`` selected users; denser rows take the
    literal sum (:func:`_masked_row_sums`).  Rows use disjoint buckets,
    and the movement norm reduces along the contiguous last axis, so
    rows never interact.
    """
    n = members[0].n
    n_stations = len(members[0].stations)
    # 0-d operands: ufuncs take them faster than Python floats.
    zero, one, eps = np.array(0.0), np.array(1.0), np.array(_LAMBDA_EPS)
    rows: List[_DualState] = []
    begun: List[int] = []
    events: List[int] = []
    free: List[int] = []
    arrays: list = []
    joining = list(members)
    width = 0
    T = 0
    while True:
        # Admission: refill frozen rows in place, then drop the rows
        # nobody refilled, or append the members that found no row.
        refills = min(len(free), len(joining))
        for row, member in zip(free, joining):
            rows[row] = member
            begun[row] = T
            events[row] = T + _next_event(member, 0)
            for array, value in zip(arrays, _row_values(member)):
                array[row] = value
        if len(free) > refills:
            keep = np.ones(len(rows), dtype=bool)
            keep[free[refills:]] = False
            rows = [m for row, m in enumerate(rows) if keep[row]]
            begun = [b for row, b in enumerate(begun) if keep[row]]
            events = [e for row, e in enumerate(events) if keep[row]]
            arrays = [array[keep] for array in arrays]
        elif len(joining) > refills:
            extra = joining[refills:]
            added = _row_arrays(extra)
            arrays = ([np.concatenate([a, b]) for a, b in zip(arrays, added)]
                      if rows else added)
            rows.extend(extra)
            begun.extend([T] * len(extra))
            events.extend(T + _next_event(m, 0) for m in extra)
        free = []
        if not rows:
            return
        s, cost, r, w2, dead, positions, lam, steps, decays, stop_sqs = arrays
        starts = np.array(begun, dtype=float)[:, None]
        if len(rows) != width:
            # Work buffers for the new width.
            width = len(rows)
            lam2 = np.empty((width, 2 * n))
            rho = np.empty((width, 2 * n))
            util = np.empty((width, 2 * n))
            rho0, rho1 = rho[:, :n], rho[:, n:]
            util0, util1 = util[:, :n], util[:, n:]
            choose = np.empty((width, n), dtype=bool)
        # Indices into the flattened multiplier stack.
        flat2 = positions + (np.arange(width) * n_stations)[:, None]
        mbs_flat, fbs_flat = flat2[:, :n], flat2[:, n:]
        next_event = min(events)
        decay_start = min(b + m.decay_after for b, m in zip(begun, rows))
        resumed_at = T
        frozen: List[_DualState] = []
        with np.errstate(over="ignore"):
            while not frozen:
                T += 1
                # Table I step 3: closed-form stationary shares
                # [s/lambda - W/slope]^+, clipped to the per-user range
                # [0, 1]; dead branches get zero.  The multipliers are
                # projected non-negative, so the epsilon guard against a
                # vanishing one is a single ``maximum``; the overflow it
                # can still cause is harmless after the clip.
                lam.take(flat2, out=lam2, mode="clip")
                np.maximum(lam2, eps, out=rho)
                np.divide(s, rho, out=rho)
                np.subtract(rho, cost, out=rho)
                np.maximum(rho, zero, out=rho)
                np.minimum(rho, one, out=rho)
                np.copyto(rho, zero, where=dead)
                # Table I step 4: pick the branch with the larger
                # Lagrangian term s log1p(rho R / W) - lambda rho.
                # Utilities are expected log-PSNR gains (see
                # repro.core.problem for the eq. (11) vs eq. (12)
                # discussion); they multiply by the *raw* multipliers,
                # which differ from the guarded ones when a multiplier
                # projects to zero.
                np.multiply(rho, r, out=util)
                np.divide(util, w2, out=util)
                np.log1p(util, out=util)
                np.multiply(util, s, out=util)
                np.multiply(lam2, rho, out=lam2)
                np.subtract(util, lam2, out=util)
                np.greater(util0, util1, out=choose)

                # Step 9 / eqs. (16),(18),(19): projected subgradient
                # update from the shares of the users that selected each
                # station.
                bucket = np.where(choose, mbs_flat, fbs_flat).ravel()
                usage = np.bincount(
                    bucket, np.where(choose, rho0, rho1).ravel(), lam.size)
                if n >= _SEQUENTIAL_SUM_LIMIT:
                    counts = np.bincount(bucket, None, lam.size)[::n_stations]
                    if max(counts.tolist()) >= _SEQUENTIAL_SUM_LIMIT:
                        dense = np.flatnonzero(counts >= _SEQUENTIAL_SUM_LIMIT)
                        usage[dense * n_stations] = _masked_row_sums(
                            rho0[dense], choose[dense])
                usage = usage.reshape(lam.shape)
                if T <= decay_start:
                    effective_step = steps
                else:
                    t = T - starts
                    effective_step = np.where(t <= decays, steps,
                                              steps * decays / t)
                np.subtract(one, usage, out=usage)
                np.multiply(usage, effective_step, out=usage)
                np.subtract(lam, usage, out=usage)
                new_lam = np.maximum(zero, usage, out=usage)
                np.subtract(new_lam, lam, out=lam)
                np.multiply(lam, lam, out=lam)
                movement = np.add.reduce(lam, axis=1)
                lam = new_lam
                if trace is not None:
                    trace.append(lam[0].copy())
                converged = movement <= stop_sqs
                if T < next_event and not np.count_nonzero(converged):
                    continue
                # Slow path: a member converged, or reached its budget or
                # a stall-check tick.
                hits = set(np.flatnonzero(converged).tolist())
                if T >= next_event:
                    hits.update(row for row, event in enumerate(events)
                                if event == T)
                for row in sorted(hits):
                    member = rows[row]
                    t = T - begun[row]
                    done = False
                    if converged[row]:
                        member.converged = True
                        done = True
                    elif t % _STALL_CHECK_EVERY == 0 and t > member.decay_after:
                        # Limit-cycle exit, per member.
                        done = member.stalled(choose[row])
                    if not done and t >= member.max_iterations:
                        done = True
                    if done:
                        member.iterations = t
                        member.choose_mbs = choose[row].copy()
                        member.lam = lam[row].copy()
                        member.movement = float(movement[row])
                        frozen.append(member)
                        free.append(row)
                    else:
                        events[row] = begun[row] + _next_event(member, t)
                if not frozen:
                    next_event = min(events)
        arrays[6] = lam
        joining = (yield frozen, T - resumed_at) or []


def fast_solve(problem: SlotProblem, *, max_iterations: int = 400,
               polish: bool = True) -> Allocation:
    """Fast solver: capped subgradient run plus single-flip local search.

    Runs the Table I/II iteration with a reduced budget, then polishes the
    resulting binary assignment by exact single-user flips (each candidate
    evaluated with the exact water-filling oracle).  On randomized
    instances this matches the exhaustive optimum (see the test suite)
    while being fast enough for the greedy channel allocation's many
    ``Q(c)`` evaluations.  Runs :func:`repro.core.batch.fast_solve_iter`
    to completion.

    Parameters
    ----------
    problem:
        The slot problem.
    max_iterations:
        Subgradient budget before the polish stage.
    polish:
        Disable to get the raw capped-subgradient solution.
    """
    from repro.core.batch import drive, fast_solve_iter

    return drive(fast_solve_iter(problem, max_iterations=max_iterations,
                                 polish=polish))


def flip_polish(problem: SlotProblem, allocation: Allocation, *,
                max_sweeps: int = 50) -> Allocation:
    """1-opt local search over the binary base-station assignment.

    Repeatedly flips single users between MBS and FBS, re-solving the
    (convex) time-share problem exactly after each candidate flip, until
    no flip improves the objective.  Starting from the dual iterate this
    reliably removes the rare residual assignment error of a capped
    subgradient run.
    """
    # Compile once: the K solves per sweep then share the slot's
    # water-filling group cache without a lookup per call.
    compiled = compile_slot_problem(problem)
    expected = problem.expected_channels
    best = (allocation if not np.isnan(allocation.objective)
            else compiled.solve_assignment(allocation.mbs_user_ids, expected))
    for _sweep in range(max_sweeps):
        improved = False
        for user_id in problem.columns.static.user_ids:
            trial = set(best.mbs_user_ids)
            trial.symmetric_difference_update({user_id})
            candidate = compiled.solve_assignment(trial, expected)
            if candidate.objective > best.objective + 1e-15:
                best = candidate
                improved = True
        if not improved:
            break
    return best
