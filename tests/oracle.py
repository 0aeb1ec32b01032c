"""The scalar reference implementations: the bit-exact oracle.

Production code (``repro.core``, ``repro.sim.engine``) has one path per
computation -- one water-filling scan, compiled per-group solves, the
hoisted dual iteration, batched sensing/fusion/CSI draws.  Each one was
engineered to reproduce a straight-from-the-paper scalar implementation
bit for bit, including RNG stream consumption.  Those scalar versions
live here, verbatim, so the differential suites can keep holding the
production path to them:

* :func:`branch_share`, :func:`solve_scalar` -- the Table I/II
  subgradient iteration with per-iteration closed-form shares;
* :func:`water_filling_scalar`, :func:`solve_given_assignment_scalar`,
  :func:`flip_polish_scalar` -- the pure-Python exact inner solves;
* :func:`check_allocation_scalar` -- the per-FBS allocation check,
  one scan of the users per cell;
* :func:`sense_fuse_scalar`, :func:`draw_csi`, :func:`decide_scalar`
  -- one :class:`~repro.sensing.detector.SensingResult` per
  observation, one fading draw per link, and one ``P_D`` per channel.

:func:`scalar_path` routes a whole simulation through them (patching
the production seams for the duration of a ``with`` block),
:func:`unbatched` runs campaigns replication by replication instead of
in lockstep, and :func:`clear_solver_caches` starts a run with cold
caches.  For the Table III greedy, :func:`drive_exact` answers
every ``Q(c)`` evaluation with a cold full solve and
:func:`literal_scan` makes each step evaluate every candidate pair.
All of these exist for tests and benchmarks only.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core import batch, coloring, dual, greedy
from repro.core.dual import (
    _LAMBDA_EPS,
    _STALL_CHECK_EVERY,
    _STALL_PATIENCE,
    DualDecompositionSolver,
    DualSolution,
)
from repro.core.problem import Allocation, SlotProblem
from repro.obs.metrics import ITERATION_BUCKETS
from repro.sensing.access import AccessDecision, AccessPolicy
from repro.sensing.assignment import assign_sensors_round_robin
from repro.sensing.detector import SensingResult, SpectrumSensor
from repro.sensing.fusion import fuse_posterior
from repro.sim import lockstep
from repro.sim.build import build_scenario
from repro.sim.engine import SimulationEngine
from repro.sim.fallback import _FEASIBILITY_TOL, DegradationEvent
from repro.utils.errors import ConfigurationError
from repro.utils.validation import check_probability_array
from tests.reference import _validate_water_filling


# -- exact inner solves -----------------------------------------------------


def water_filling_scalar(weights: Sequence[float], bases: Sequence[float],
                         slopes: Sequence[float]) -> Tuple[List[float], float]:
    """The original pure-Python water-filling.

    Semantics are documented on :func:`repro.core.reference.water_filling`.
    """
    n = _validate_water_filling(weights, bases, slopes)
    active = [j for j in range(n) if weights[j] > 0 and slopes[j] > 0]
    rho = [0.0] * n
    if active:
        # KKT: rho_j(lam) = (w_j / lam - c_j)^+ with c_j = W_j / s_j; the
        # budget always binds under log utility, so lam solves
        # sum_{j in S} (w_j / lam - c_j) = 1 over the active set
        # S = {j : w_j / c_j > lam}.  Scanning users in decreasing order
        # of their activation breakpoint w_j / c_j, exactly one prefix
        # yields lam = sum(w) / (1 + sum(c)) consistent with its own
        # membership -- an exact O(K log K) water-filling.
        costs = {j: bases[j] / slopes[j] for j in active}
        order = sorted(active, key=lambda j: weights[j] / costs[j], reverse=True)
        weight_sum = 0.0
        cost_sum = 0.0
        lam = None
        members = 0
        for position, j in enumerate(order):
            weight_sum += weights[j]
            cost_sum += costs[j]
            candidate = weight_sum / (1.0 + cost_sum)
            next_breakpoint = (weights[order[position + 1]] / costs[order[position + 1]]
                               if position + 1 < len(order) else 0.0)
            if candidate >= next_breakpoint:
                lam = candidate
                members = position + 1
                break
        if lam is None or lam <= 0.0:
            # Subnormal weights/slopes underflowed the water level; the
            # utilities involved are ~0, so any feasible choice is optimal
            # to machine precision -- serve the best-breakpoint user.
            rho[order[0]] = 1.0
        else:
            raw = [max(0.0, weights[j] / lam - costs[j]) for j in order[:members]]
            raw_total = sum(raw)
            if raw_total > 0.0:
                # Snap the rounding residual onto the simplex boundary.
                raw = [r / raw_total for r in raw]
            for j, share in zip(order[:members], raw):
                rho[j] = share
    value = sum(weights[j] * math.log1p(rho[j] * slopes[j] / bases[j]) for j in range(n))
    return rho, value


def solve_given_assignment_scalar(problem: SlotProblem, mbs_user_ids) -> Allocation:
    """The original per-group extraction loop over :func:`water_filling_scalar`."""
    mbs_user_ids = set(mbs_user_ids)
    known = {user.user_id for user in problem.users}
    unknown = mbs_user_ids - known
    if unknown:
        raise ConfigurationError(f"assignment references unknown users {sorted(unknown)}")
    rho_mbs: Dict[int, float] = {}
    rho_fbs: Dict[int, float] = {}
    objective = 0.0

    mbs_users = [user for user in problem.users if user.user_id in mbs_user_ids]
    shares, value = water_filling_scalar(
        [user.success_mbs for user in mbs_users],
        [user.w_prev for user in mbs_users],
        [user.r_mbs for user in mbs_users],
    ) if mbs_users else ([], 0.0)
    for user, share in zip(mbs_users, shares):
        rho_mbs[user.user_id] = share
    objective += value

    for fbs_id in problem.fbs_ids:
        cell_users = [user for user in problem.users_of_fbs(fbs_id)
                      if user.user_id not in mbs_user_ids]
        if not cell_users:
            continue
        g_i = problem.expected_channels[fbs_id]
        shares, value = water_filling_scalar(
            [user.success_fbs for user in cell_users],
            [user.w_prev for user in cell_users],
            [g_i * user.r_fbs for user in cell_users],
        )
        for user, share in zip(cell_users, shares):
            rho_fbs[user.user_id] = share
        objective += value

    return Allocation(mbs_user_ids=mbs_user_ids, rho_mbs=rho_mbs,
                      rho_fbs=rho_fbs, objective=objective)


def flip_polish_scalar(problem: SlotProblem, allocation: Allocation, *,
                       max_sweeps: int = 50) -> Allocation:
    """:func:`repro.core.dual.flip_polish` over the scalar inner solve."""
    best = (allocation if not np.isnan(allocation.objective)
            else solve_given_assignment_scalar(problem, allocation.mbs_user_ids))
    for _sweep in range(max_sweeps):
        improved = False
        for user in problem.users:
            trial = set(best.mbs_user_ids)
            trial.symmetric_difference_update({user.user_id})
            candidate = solve_given_assignment_scalar(problem, trial)
            if candidate.objective > best.objective + 1e-15:
                best = candidate
                improved = True
        if not improved:
            break
    return best


def check_allocation_scalar(problem: SlotProblem,
                            allocation: Allocation) -> Optional[str]:
    """The original :func:`repro.sim.fallback.check_allocation`.

    Each FBS's load is summed over :meth:`SlotProblem.users_of_fbs`, one
    scan of the users per FBS.
    """
    shares = list(allocation.rho_mbs.values()) + list(allocation.rho_fbs.values())
    if not all(map(math.isfinite, shares)):
        return "non-finite"
    if not math.isfinite(allocation.objective):
        return "non-finite"
    if any(share < -_FEASIBILITY_TOL or share > 1.0 + _FEASIBILITY_TOL
           for share in shares):
        return "infeasible"
    mbs_load = sum(allocation.rho_mbs.get(uid, 0.0)
                   for uid in allocation.mbs_user_ids)
    if mbs_load > 1.0 + _FEASIBILITY_TOL:
        return "infeasible"
    for fbs_id in problem.fbs_ids:
        cell_load = sum(
            allocation.rho_fbs.get(user.user_id, 0.0)
            for user in problem.users_of_fbs(fbs_id)
            if user.user_id not in allocation.mbs_user_ids)
        if cell_load > 1.0 + _FEASIBILITY_TOL:
            return "infeasible"
    return None


# -- the dual iteration -----------------------------------------------------


def branch_share(success: np.ndarray, lam, w: np.ndarray,
                 slope: np.ndarray) -> np.ndarray:
    """Closed-form subproblem share ``[success/lambda - W/slope]^+``.

    Degenerate entries -- zero slope (no bandwidth / no channels) or zero
    success probability -- get zero share.  A zero multiplier with a live
    branch clips to the full slot.  ``lam`` may be a scalar or an array
    aligned with the users.
    """
    lam_arr = np.asarray(lam, dtype=float) + 0.0 * w
    live = (slope > 0) & (success > 0)
    safe_lam = np.where(lam_arr > _LAMBDA_EPS, lam_arr, _LAMBDA_EPS)
    safe_slope = np.where(live, slope, 1.0)
    with np.errstate(over="ignore"):
        # A vanishing multiplier makes the unconstrained share blow up;
        # the clip to the full slot below makes the overflow harmless.
        raw = success / safe_lam - w / safe_slope
    raw[raw < 0.0] = 0.0
    raw[raw > 1.0] = 1.0
    raw[~live] = 0.0
    return raw


def solve_scalar(solver: DualDecompositionSolver, problem: SlotProblem,
                 initial_multipliers: Optional[Dict[int, float]] = None,
                 registry=None) -> DualSolution:
    """The original Table I/II loop, with ``solver``'s parameters.

    Signature-compatible with ``DualDecompositionSolver._solve`` so
    :func:`scalar_path` can substitute it.  Strictness is not modelled:
    the oracle always returns its best iterate.
    """
    stations = [0] + problem.fbs_ids
    station_pos = {station: pos for pos, station in enumerate(stations)}

    users = list(problem.users)
    n = len(users)
    w = np.array([u.w_prev for u in users])
    s_mbs = np.array([u.success_mbs for u in users])
    s_fbs = np.array([u.success_fbs for u in users])
    r_mbs = np.array([u.r_mbs for u in users])
    r_fbs_eff = np.array([problem.g_for_user(u) * u.r_fbs for u in users])
    fbs_pos = np.array([station_pos[u.fbs_id] for u in users])

    marginals = np.concatenate([s_mbs * r_mbs / w, s_fbs * r_fbs_eff / w])
    positive = marginals[marginals > 0]
    scale = float(positive.mean()) if positive.size else 1.0
    step = solver.step_size * scale
    stop_sq = (solver.threshold * scale) ** 2

    lam = np.full(len(stations), scale)
    if initial_multipliers:
        for station, value in initial_multipliers.items():
            if station in station_pos:
                lam[station_pos[station]] = max(0.0, float(value))

    trace = [lam.copy()] if solver.record_trace else None
    converged = False
    iterations = 0
    best_recovered = None
    stagnant_checks = 0
    choose_mbs = np.zeros(n, dtype=bool)

    for iterations in range(1, solver.max_iterations + 1):
        lam0 = lam[0]
        lam_user = lam[fbs_pos]
        rho0 = branch_share(s_mbs, lam0, w, r_mbs)
        rho1 = branch_share(s_fbs, lam_user, w, r_fbs_eff)
        util0 = s_mbs * np.log1p(rho0 * r_mbs / w) - lam0 * rho0
        util1 = s_fbs * np.log1p(rho1 * r_fbs_eff / w) - lam_user * rho1
        choose_mbs = util0 > util1

        usage = np.zeros(len(stations))
        usage[0] = rho0[choose_mbs].sum()
        np.add.at(usage, fbs_pos[~choose_mbs], rho1[~choose_mbs])
        effective_step = (step if iterations <= solver.decay_after
                          else step * solver.decay_after / iterations)
        new_lam = np.maximum(0.0, lam - effective_step * (1.0 - usage))
        movement = float(np.square(new_lam - lam).sum())
        lam = new_lam
        if trace is not None:
            trace.append(lam.copy())
        if movement <= stop_sq:
            converged = True
            break
        if iterations % _STALL_CHECK_EVERY == 0 and iterations > solver.decay_after:
            assignment = {users[j].user_id for j in range(n) if choose_mbs[j]}
            candidate = solve_given_assignment_scalar(problem, assignment)
            if best_recovered is None or (candidate.objective
                                          > best_recovered.objective + 1e-12):
                best_recovered = candidate
                stagnant_checks = 0
            else:
                stagnant_checks += 1
                if stagnant_checks >= _STALL_PATIENCE:
                    break

    if registry is not None:
        registry.counter("repro_solver_solves_total",
                         converged=str(converged).lower()).inc()
        registry.counter("repro_solver_iterations_total").inc(iterations)
        registry.histogram("repro_solver_iterations",
                           buckets=ITERATION_BUCKETS).observe(iterations)

    mbs_set = {users[j].user_id for j in range(n) if choose_mbs[j]}
    allocation = solve_given_assignment_scalar(problem, mbs_set)
    if best_recovered is not None and (best_recovered.objective
                                       > allocation.objective):
        allocation = best_recovered
    return DualSolution(
        allocation=allocation,
        multipliers={station: float(lam[station_pos[station]]) for station in stations},
        iterations=iterations,
        converged=converged,
        trace=np.array(trace) if trace is not None else None,
        trace_stations=list(stations) if trace is not None else None,
    )


def answer_request_scalar(request: batch.SolveRequest) -> DualSolution:
    """Answer a solve request with the scalar loop (no metrics booked)."""
    solver = DualDecompositionSolver(
        step_size=request.step_size, threshold=request.threshold,
        max_iterations=request.max_iterations,
        decay_after=request.decay_after)
    return solve_scalar(solver, request.problem, request.initial_multipliers)


# -- the engine's slot phases -----------------------------------------------


def draw_csi(engine: SimulationEngine) -> Dict[int, tuple]:
    """One exponential fading draw per link, user by user.

    Under Rayleigh fading the decoding margin ``X / H`` is exponential
    with the link's mean margin; a link decodes iff its draw exceeds 1.
    """
    topology = engine.config.topology
    csi = {}
    for user in topology.users:
        csi[user.user_id] = (
            float(engine._fading_rng.exponential(topology.mbs_margin[user.user_id])),
            float(engine._fading_rng.exponential(topology.fbs_margin[user.user_id])),
        )
    return csi


def sense_fuse_scalar(engine: SimulationEngine,
                      occupancy: np.ndarray) -> List[float]:
    """Sensing + fusion with one :class:`SensingResult` per observation,
    fused channel by channel with eqs. (2)-(4).

    One :class:`SpectrumSensor` per FBS (``M`` antennas, topology order)
    and per CR user (sorted ids, round-robin channels), all on the
    engine's sensing stream; priors are the ``eta_m`` of the engine's
    build (:func:`~repro.sim.build.build_scenario`).
    """
    config = engine.config
    topology = config.topology
    fault_plan = config.fault_plan
    rng = engine._sensing_rng
    results_by_channel: Dict[int, List[SensingResult]] = {
        m: [] for m in range(config.n_channels)}
    # FBS sensor ids live above the user id space to stay unique.
    id_base = 1 + max(user.user_id for user in topology.users)
    for fbs in topology.fbss:
        sensor = SpectrumSensor(config.false_alarm, config.miss_detection,
                                sensor_id=id_base + fbs.fbs_id, rng=rng)
        for m in range(config.n_channels):
            results_by_channel[m].append(sensor.sense(m, int(occupancy[m])))
    user_ids = sorted(user.user_id for user in topology.users)
    user_assignment = assign_sensors_round_robin(
        user_ids, config.n_channels, offset=engine._slot)
    for user_id, channel in user_assignment.items():
        sensor = SpectrumSensor(config.false_alarm, config.miss_detection,
                                sensor_id=user_id, rng=rng)
        results_by_channel[channel].append(
            sensor.sense(channel, int(occupancy[channel])))
    if config.single_observation_fusion:
        # A2 ablation: only the first result (the first FBS's own
        # antenna) reaches the fusion centre.
        results_by_channel = {m: results[:1]
                              for m, results in results_by_channel.items()}
    if fault_plan is not None:
        # Injected sensing outage: the affected channels' observations
        # never reach the fusion centre, so fusion degrades to the
        # channel prior (eq. (2) with L=0).
        outage = fault_plan.sensing_outage(engine._slot, config.n_channels)
        if outage:
            for m in outage:
                results_by_channel[m] = []
            engine.degradations.append(DegradationEvent(
                slot=engine._slot, cause="sensing-outage",
                allocator="sensing", fallback="prior-only",
                detail=("observations missing on channels "
                        f"{sorted(outage)}; fused from priors")))
    if engine.belief_tracker is not None:
        engine.belief_tracker.predict()
        return [engine.belief_tracker.fuse(m, results_by_channel[m])
                for m in range(config.n_channels)]
    etas = build_scenario(config).etas
    return [fuse_posterior(float(etas[m]), results_by_channel[m])
            for m in range(config.n_channels)]


def decide_scalar(policy: AccessPolicy, posteriors) -> AccessDecision:
    """Access decisions with one :meth:`AccessPolicy.access_probability`
    call per channel, then the same ``rng.random(M)`` draw."""
    posteriors = check_probability_array(posteriors, "posteriors")
    if posteriors.size != policy.n_channels:
        raise ValueError(
            f"expected {policy.n_channels} posteriors, got {posteriors.size}")
    probs = np.array([
        policy.access_probability(m, posteriors[m])
        for m in range(policy.n_channels)
    ])
    draws = policy._rng.random(policy.n_channels)
    decisions = np.where(draws < probs, 0, 1).astype(np.int8)
    return AccessDecision(
        access_probabilities=probs,
        decisions=decisions,
        posteriors=posteriors.copy(),
    )


# -- routing whole runs through the oracle ----------------------------------


@contextmanager
def _patched(patches):
    """Set ``owner.name = value`` for each patch; restore on exit."""
    saved = [(owner, name, vars(owner)[name]) for owner, name, _ in patches]
    try:
        for owner, name, value in patches:
            setattr(owner, name, value)
        yield
    finally:
        for owner, name, value in reversed(saved):
            setattr(owner, name, value)


def _one_by_one(cells, fallback):
    """A lockstep driver that runs every cell on the per-cell path."""
    for cell in cells:
        yield fallback(cell)


@contextmanager
def unbatched():
    """Run campaigns replication by replication (no lockstep formations):
    every cell takes the per-cell path."""
    with _patched([(lockstep, "run_cells_lockstep", _one_by_one)]):
        yield


def clear_solver_caches() -> None:
    """Drop the process-wide solver and R-D table caches, so the next
    run starts cold."""
    from repro.video import sequences

    batch._solver_for.cache_clear()
    sequences._RD_SLOT_TABLE.clear()


@contextmanager
def scalar_path():
    """Route every slot phase and solve through the scalar oracle.

    Inside the block the engine senses, fuses, decides access and draws
    fading margins one observation/channel/link at a time, every dual
    solve runs :func:`solve_scalar`, every exact inner solve runs
    :func:`solve_given_assignment_scalar`, and campaigns run unbatched.
    Process-local: worker processes spawned inside the block do not see
    the patches.
    """
    with _patched([
        (SimulationEngine, "_sense_fuse_batched", sense_fuse_scalar),
        (SimulationEngine, "_draw_csi_batched", draw_csi),
        (AccessPolicy, "decide", decide_scalar),
        (DualDecompositionSolver, "_solve", solve_scalar),
        (dual, "flip_polish", flip_polish_scalar),
        (batch, "flip_polish", flip_polish_scalar),
        (coloring, "solve_given_assignment", solve_given_assignment_scalar),
        (lockstep, "run_cells_lockstep", _one_by_one),
    ]):
        yield


# -- the Table III greedy ---------------------------------------------------


def drive_exact(gen: batch.SolveGenerator, solver=dual.fast_solve):
    """Run a solve generator, answering each request with a cold full solve.

    Every yielded :class:`~repro.core.batch.SolveRequest` is answered by
    ``solver(request.problem)``, ignoring its iteration cap and warm
    start, and carries no multipliers back -- so the greedy's
    warm-started ``Q(c)`` chain becomes one exact, independent solve per
    evaluation, the reference its bounds and scan tests need.
    """
    try:
        request = gen.send(None)
        while True:
            answer = DualSolution(allocation=solver(request.problem),
                                  multipliers={}, iterations=0,
                                  converged=True)
            request = gen.send(answer)
    except StopIteration as stop:
        return stop.value


def _every_candidate(candidates, posteriors) -> List[Tuple[int, int]]:
    return sorted(candidates)


@contextmanager
def literal_scan():
    """Make each greedy step evaluate every candidate pair (Table III).

    Production evaluates only each FBS's best remaining channel, an
    exact reduction of the argmax (see :mod:`repro.core.greedy`).
    """
    with _patched([(greedy, "_best_channel_per_fbs", _every_candidate)]):
        yield
