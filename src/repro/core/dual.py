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

Both run one iteration, :class:`_DualState`: the per-problem prologue,
the single-member subgradient loop, and the primal-recovery epilogue.
The stacked cross-replication kernel (:mod:`repro.core.batch`) builds
the same states and finishes them through the same epilogue.  The
scalar reference implementations these are validated against live in
the test suite (``tests/oracle.py``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional

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
        state.run(state.lam, 0, trace)
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

    ``__init__`` is the prologue, :meth:`run` the single-member
    subgradient loop, :meth:`finish` the epilogue (solver counters and
    primal recovery).  :meth:`DualDecompositionSolver.solve` runs all
    three in sequence; the stacked kernel (:mod:`repro.core.batch`)
    iterates many states' arrays as one ``(B, N)`` stack, hands narrow
    remnants to :meth:`run`, and finishes every member here.
    """

    __slots__ = (
        "problem", "users", "stations", "station_pos", "n",
        "w", "s_mbs", "s_fbs", "r_mbs", "r_fbs_eff", "fbs_pos",
        "cost0", "cost1", "dead0", "dead1", "lam", "step", "stop_sq",
        "max_iterations", "decay_after", "iterations", "converged",
        "movement", "choose_mbs", "best_recovered", "stagnant_checks",
    )

    def __init__(self, problem: SlotProblem,
                 initial_multipliers: Optional[Dict[int, float]], *,
                 step_size: float, threshold: float, max_iterations: int,
                 decay_after: int) -> None:
        self.problem = problem
        stations = [0] + problem.fbs_ids
        self.stations = stations
        self.station_pos = {station: pos for pos, station in enumerate(stations)}

        # Vectorise the user data once.
        users = list(problem.users)
        self.users = users
        self.n = len(users)
        self.w = np.array([u.w_prev for u in users])
        self.s_mbs = np.array([u.success_mbs for u in users])
        self.s_fbs = np.array([u.success_fbs for u in users])
        self.r_mbs = np.array([u.r_mbs for u in users])
        self.r_fbs_eff = np.array([problem.g_for_user(u) * u.r_fbs for u in users])
        self.fbs_pos = np.array([self.station_pos[u.fbs_id] for u in users])

        # Natural multiplier scale: marginal utility of the first unit of
        # share, averaged over users/branches.  Problem (12) is invariant
        # to a common rescaling of (W, R), which rescales lambda by the
        # inverse; anchoring step and threshold to this scale makes the
        # solver configuration dimensionless.
        marginals = np.concatenate([self.s_mbs * self.r_mbs / self.w,
                                    self.s_fbs * self.r_fbs_eff / self.w])
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
        # the live-branch masks and the W/slope costs.
        live0 = (self.r_mbs > 0) & (self.s_mbs > 0)
        live1 = (self.r_fbs_eff > 0) & (self.s_fbs > 0)
        self.dead0 = ~live0
        self.dead1 = ~live1
        with np.errstate(over="ignore"):
            self.cost0 = self.w / np.where(live0, self.r_mbs, 1.0)
            self.cost1 = self.w / np.where(live1, self.r_fbs_eff, 1.0)

        self.max_iterations = int(max_iterations)
        self.decay_after = int(decay_after)
        self.iterations = 0
        self.converged = False
        self.movement = float("inf")
        self.choose_mbs = np.zeros(self.n, dtype=bool)
        self.best_recovered = None
        self.stagnant_checks = 0

    def run(self, lam: np.ndarray, start: int,
            trace: Optional[List[np.ndarray]] = None) -> None:
        """Iterate from multipliers ``lam`` after ``start`` iterations.

        Runs until the stopping rule, the stall exit, or the budget
        fires, leaving the final iterate in ``lam``/``choose_mbs``.
        ``trace`` (Fig. 4(a)) receives a copy of every new iterate.
        """
        w, s_mbs, s_fbs = self.w, self.s_mbs, self.s_fbs
        r_mbs, r_fbs_eff = self.r_mbs, self.r_fbs_eff
        cost0, cost1 = self.cost0, self.cost1
        dead0, dead1 = self.dead0, self.dead1
        fbs_pos = self.fbs_pos
        n_stations = len(self.stations)
        step = self.step
        stop_sq = self.stop_sq
        decay_after = self.decay_after
        choose_mbs = self.choose_mbs
        movement = self.movement
        t = start
        with np.errstate(over="ignore"):
            for t in range(start + 1, self.max_iterations + 1):
                lam0 = lam[0]
                lam_user = lam[fbs_pos]
                # Table I step 3: closed-form stationary shares
                # [s/lambda - W/slope]^+, clipped to the per-user range
                # [0, 1]; dead branches (no rate or no success) get zero.
                # A vanishing multiplier makes the raw share overflow;
                # the clip makes that harmless.
                safe_lam0 = lam0 if lam0 > _LAMBDA_EPS else _LAMBDA_EPS
                rho0 = s_mbs / safe_lam0 - cost0
                np.maximum(rho0, 0.0, out=rho0)
                np.minimum(rho0, 1.0, out=rho0)
                rho0[dead0] = 0.0
                safe_lam1 = np.where(lam_user > _LAMBDA_EPS, lam_user,
                                     _LAMBDA_EPS)
                rho1 = s_fbs / safe_lam1 - cost1
                np.maximum(rho1, 0.0, out=rho1)
                np.minimum(rho1, 1.0, out=rho1)
                rho1[dead1] = 0.0
                # Table I step 4: pick the branch with the larger
                # Lagrangian term.  Utilities are expected log-PSNR gains
                # (see repro.core.problem for the eq. (11) vs eq. (12)
                # discussion).
                util0 = s_mbs * np.log1p(rho0 * r_mbs / w) - lam0 * rho0
                util1 = s_fbs * np.log1p(rho1 * r_fbs_eff / w) - lam_user * rho1
                choose_mbs = util0 > util1

                # Steps 9 / eqs. (16),(18),(19): projected subgradient
                # update using only the shares of users that selected
                # each station.
                usage = np.zeros(n_stations)
                usage[0] = rho0[choose_mbs].sum()
                np.add.at(usage, fbs_pos[~choose_mbs], rho1[~choose_mbs])
                effective_step = (step if t <= decay_after
                                  else step * decay_after / t)
                new_lam = np.maximum(0.0, lam - effective_step * (1.0 - usage))
                movement = float(np.square(new_lam - lam).sum())
                lam = new_lam
                if trace is not None:
                    trace.append(lam.copy())
                if movement <= stop_sq:
                    self.converged = True
                    break
                if (t % _STALL_CHECK_EVERY == 0 and t > decay_after
                        and self.stalled(choose_mbs)):
                    break
        self.iterations = t
        self.choose_mbs = choose_mbs
        self.lam = lam
        self.movement = movement

    def stalled(self, choose_mbs: np.ndarray) -> bool:
        """Limit-cycle exit: whether the recovered primal has stagnated.

        When branch choices flip persistently the multiplier movement
        never vanishes, but the recovered primal stops improving -- track
        the best assignment seen and report a stall once it has not
        improved for ``_STALL_PATIENCE`` consecutive checks.
        """
        assignment = {self.users[j].user_id for j in range(self.n)
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
        mbs_set = {self.users[j].user_id for j in range(self.n)
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


def fast_solve(problem: SlotProblem, *, max_iterations: int = 400,
               polish: bool = True,
               initial_multipliers: Optional[Dict[int, float]] = None) -> Allocation:
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
    initial_multipliers:
        Warm start, useful across consecutive ``Q`` evaluations.
    """
    from repro.core.batch import drive, fast_solve_iter

    return drive(fast_solve_iter(problem, max_iterations=max_iterations,
                                 polish=polish,
                                 initial_multipliers=initial_multipliers))


def fast_solve_warm(problem: SlotProblem, warm_multipliers: Dict[int, float], *,
                    max_iterations: int = 400, polish: bool = True) -> Allocation:
    """:func:`fast_solve` with a persistent warm-start multiplier store.

    ``warm_multipliers`` is read as the initial dual point (when
    non-empty) and replaced in place with the final multipliers, so a
    caller holding one dict across consecutive slots chains each solve
    off the previous slot's dual optimum.  Per-slot problems drift slowly
    (the PSNR states ``W_j`` move by one slot's increment), so the warm
    dual point is near-optimal and the subgradient loop converges in far
    fewer iterations.  Note the warm-started iterate path differs from a
    cold solve, so allocations are not bit-identical to cold ones -- the
    benchmark asserts they are equal-or-better in objective instead.
    """
    from repro.core.batch import drive, fast_solve_warm_iter

    return drive(fast_solve_warm_iter(problem, warm_multipliers,
                                      max_iterations=max_iterations,
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
    # Compile once: the K solves per sweep then skip the per-call
    # compile-cache lookup and share one water-filling group cache.
    compiled = compile_slot_problem(problem)
    expected = problem.expected_channels
    best = (allocation if not np.isnan(allocation.objective)
            else compiled.solve_assignment(allocation.mbs_user_ids, expected))
    for _sweep in range(max_sweeps):
        improved = False
        for user in problem.users:
            trial = set(best.mbs_user_ids)
            trial.symmetric_difference_update({user.user_id})
            candidate = compiled.solve_assignment(trial, expected)
            if candidate.objective > best.objective + 1e-15:
                best = candidate
                improved = True
        if not improved:
            break
    return best
