"""Exact reference solvers ("oracles") for the per-slot problem.

Two building blocks:

* :func:`water_filling` -- given the binary base-station assignment, each
  base station's subproblem is a weighted log-utility water-filling over
  the slot simplex, solved exactly in closed form by a breakpoint scan on
  the KKT multiplier.
* :func:`exhaustive_reference_solution` -- enumerate all ``2^K`` binary
  assignments (Theorem 1: the optimal ``p`` is binary, so this search is
  exact for problem (12)/(17)) and water-fill each.  Exponential in ``K``,
  intended for tests and small instances only.

The distributed dual algorithm (Tables I/II) is validated against these in
the test suite; the greedy bound checks of Theorem 2 use them to compute
true optima on small interfering instances.

The water-filling step (:func:`_water_filling_arrays`, DESIGN §10) is a
numpy formulation of the breakpoint scan (stable argsort + cumulative
sums), engineered operation-for-operation to reproduce the pure-Python
scan's floating-point results exactly; that scalar form is the bit-exact
oracle in ``tests/oracle.py``.  The final objective value intentionally
stays a scalar ``math.log1p`` loop over the (few) users with positive
share: numpy's ``log1p`` ufunc is *not* bit-identical to ``math.log1p``
on all inputs, while skipping the exact-zero terms of a non-negative
sequential sum is an identity.

:func:`compile_slot_problem` builds a :class:`CompiledSlotProblem` -- the
problem's user fields packed once into arrays, with per-(station, member
set) water-filling results cached -- so the thousands of
``solve_given_assignment`` calls issued per slot by ``flip_polish`` and
the dual solver's primal recovery stop re-extracting user attributes and
re-solving identical subgroups.
"""

from __future__ import annotations

import itertools
import math
from collections import OrderedDict
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.problem import Allocation, SlotProblem, UserDemand
from repro.utils.errors import ConfigurationError


def _validate_water_filling(weights: Sequence[float], bases: Sequence[float],
                            slopes: Sequence[float]) -> int:
    """Shared input validation; returns the (common) length."""
    n = len(weights)
    if not (len(bases) == len(slopes) == n):
        raise ConfigurationError(
            f"weights/bases/slopes must have equal length, got "
            f"{n}/{len(bases)}/{len(slopes)}")
    for j in range(n):
        if bases[j] <= 0:
            raise ConfigurationError(f"bases[{j}] must be positive, got {bases[j]}")
        if weights[j] < 0 or slopes[j] < 0:
            raise ConfigurationError("weights and slopes must be non-negative")
    return n


def _water_filling_arrays(weights: np.ndarray, bases: np.ndarray,
                          slopes: np.ndarray) -> Tuple[np.ndarray, float]:
    """Vectorized breakpoint scan; bit-identical to the scalar oracle.

    Inputs are validated float64 arrays.  KKT: ``rho_j(lam) = (w_j / lam
    - c_j)^+`` with ``c_j = W_j / s_j``; the budget always binds under
    log utility, so ``lam`` solves ``sum_{j in S} (w_j / lam - c_j) = 1``
    over the active set ``S = {j : w_j / c_j > lam}``.  Scanning users in
    decreasing order of their activation breakpoint ``w_j / c_j``,
    exactly one prefix yields ``lam = sum(w) / (1 + sum(c))`` consistent
    with its own membership -- an exact O(K log K) water-filling.  When
    subnormal weights/slopes underflow the water level, the utilities
    involved are ~0, so any feasible choice is optimal to machine
    precision and the best-breakpoint user is served.

    The candidate water levels are the same running-sum quotients the
    scalar loop computes (``cumsum`` is a sequential sum, so every
    partial result matches), the stable descending argsort reproduces
    Python's stable ``sorted(..., reverse=True)`` tie order, and the
    objective is accumulated with scalar ``math.log1p`` in
    ascending-index order exactly like the oracle (zero-share terms
    contribute an exact ``+0.0`` there, so skipping them is lossless).
    """
    n = weights.size
    rho = np.zeros(n)
    active = np.flatnonzero((weights > 0) & (slopes > 0))
    if active.size:
        w = weights[active]
        with np.errstate(over="ignore"):
            costs = bases[active] / slopes[active]
            if not np.all(costs):
                # bases/slopes underflowed to exact zero; the scalar
                # oracle's ``weights[j] / costs[j]`` raises here too.
                raise ZeroDivisionError("float division by zero")
            keys = w / costs
        order = np.argsort(-keys, kind="stable")
        w_ord = w[order]
        cost_ord = costs[order]
        key_ord = keys[order]
        candidates = np.cumsum(w_ord) / (1.0 + np.cumsum(cost_ord))
        next_breakpoints = np.empty_like(key_ord)
        next_breakpoints[:-1] = key_ord[1:]
        next_breakpoints[-1] = 0.0
        stops = np.flatnonzero(candidates >= next_breakpoints)
        lam = float(candidates[stops[0]]) if stops.size else None
        if lam is None or lam <= 0.0:
            rho[active[order[0]]] = 1.0
        else:
            members = int(stops[0]) + 1
            raw = w_ord[:members] / lam - cost_ord[:members]
            np.maximum(raw, 0.0, out=raw)
            raw_total = float(np.cumsum(raw)[-1])
            if raw_total > 0.0:
                raw = raw / raw_total
            rho[active[order[:members]]] = raw
    value = 0.0
    with np.errstate(over="ignore"):
        for j in np.flatnonzero(rho > 0.0):
            value += weights[j] * math.log1p(rho[j] * slopes[j] / bases[j])
    return rho, float(value)


def water_filling(weights: Sequence[float], bases: Sequence[float],
                  slopes: Sequence[float]) -> Tuple[List[float], float]:
    """Maximise ``sum_j weights_j * [log(bases_j + rho_j slopes_j) - log(bases_j)]``.

    Subject to ``sum_j rho_j <= 1`` and ``rho >= 0``.  This is the
    per-base-station subproblem of (12)/(17) once the assignment is fixed:
    ``weights`` are link success probabilities ``bar P^F``, ``bases`` the
    PSNR states ``W_j``, ``slopes`` the effective per-slot increments
    (``R_{0,j}`` on the MBS, ``G_i * R_{i,j}`` on an FBS).  The
    ``- log(bases_j)`` normalisation makes the value the expected
    log-PSNR *gain* (see :mod:`repro.core.problem`); it is constant in
    ``rho`` and does not affect the optimiser.

    Returns
    -------
    (rho, value):
        The optimal shares and the attained objective value.  Users with
        zero weight or zero slope receive zero share and contribute zero
        value.
    """
    _validate_water_filling(weights, bases, slopes)
    rho, value = _water_filling_arrays(np.asarray(weights, dtype=float),
                                       np.asarray(bases, dtype=float),
                                       np.asarray(slopes, dtype=float))
    return rho.tolist(), value


class CompiledSlotProblem:
    """A slot's user set packed into arrays with per-group caching.

    ``solve_given_assignment`` decomposes into independent water-filling
    subproblems, one per base station, and the subproblem for a station
    depends only on *which* users sit on it and (for an FBS) on its own
    ``G_i`` -- not on how the remaining users are assigned, nor on the
    other stations' ``G`` values.  ``flip_polish``, the dual solver's
    primal recovery, and the greedy allocator's hundreds of per-slot
    ``with_expected_channels`` variants therefore re-solve the same
    (station, member set, ``G_i``) groups over and over; this class
    extracts the user attribute arrays once per user set and caches each
    group's exact water-filling result.  In particular the MBS group is
    independent of ``G`` entirely, so it is shared across every channel
    allocation candidate the greedy evaluates in a slot.
    """

    def __init__(self, users: Sequence[UserDemand]) -> None:
        users = list(users)
        self.user_ids = [user.user_id for user in users]
        self._id_set = frozenset(self.user_ids)
        self._w_prev = np.array([user.w_prev for user in users], dtype=float)
        self._success_mbs = np.array([user.success_mbs for user in users], dtype=float)
        self._success_fbs = np.array([user.success_fbs for user in users], dtype=float)
        self._r_mbs = np.array([user.r_mbs for user in users], dtype=float)
        self._r_fbs = np.array([user.r_fbs for user in users], dtype=float)
        self._fbs_ids = sorted({user.fbs_id for user in users})
        self._members = {fbs_id: [j for j, user in enumerate(users)
                                  if user.fbs_id == fbs_id]
                         for fbs_id in self._fbs_ids}
        # (station, member index tuple, g) -> (shares list, value);
        # station 0 is the MBS (g None there).  Bounded by the number of
        # distinct groups one slot's solvers actually visit.
        self._group_cache: Dict[tuple, Tuple[List[float], float]] = {}

    def _group_solution(self, station: int, members: tuple,
                        g: Optional[float]) -> Tuple[List[float], float]:
        cached = self._group_cache.get((station, members, g))
        if cached is None:
            sel = list(members)
            if station == 0:
                weights = self._success_mbs[sel]
                slopes = self._r_mbs[sel]
            else:
                weights = self._success_fbs[sel]
                slopes = g * self._r_fbs[sel]
            rho, value = _water_filling_arrays(weights, self._w_prev[sel], slopes)
            cached = (rho.tolist(), value)
            self._group_cache[(station, members, g)] = cached
        return cached

    def solve_assignment(self, mbs_user_ids,
                         expected_channels: Dict[int, float]) -> Allocation:
        """Exact solution of (17) for a fixed binary assignment."""
        mbs_user_ids = set(mbs_user_ids)
        unknown = mbs_user_ids - self._id_set
        if unknown:
            raise ConfigurationError(
                f"assignment references unknown users {sorted(unknown)}")
        rho_mbs: Dict[int, float] = {}
        rho_fbs: Dict[int, float] = {}
        objective = 0.0
        on_mbs = tuple(j for j, user_id in enumerate(self.user_ids)
                       if user_id in mbs_user_ids)
        if on_mbs:
            shares, value = self._group_solution(0, on_mbs, None)
            for j, share in zip(on_mbs, shares):
                rho_mbs[self.user_ids[j]] = share
            objective += value
        for fbs_id in self._fbs_ids:
            members = tuple(j for j in self._members[fbs_id]
                            if self.user_ids[j] not in mbs_user_ids)
            if not members:
                continue
            shares, value = self._group_solution(
                fbs_id, members, expected_channels[fbs_id])
            for j, share in zip(members, shares):
                rho_fbs[self.user_ids[j]] = share
            objective += value
        return Allocation(mbs_user_ids=mbs_user_ids, rho_mbs=rho_mbs,
                          rho_fbs=rho_fbs, objective=objective)


#: Recently compiled user sets, keyed on the user tuple.
_COMPILE_CACHE: "OrderedDict[tuple, CompiledSlotProblem]" = OrderedDict()
_COMPILE_CACHE_SIZE = 64


def compile_slot_problem(problem: SlotProblem) -> CompiledSlotProblem:
    """The compiled form of ``problem``'s user set, cached across calls.

    Keyed on the user tuple only (``UserDemand`` is frozen/hashable) --
    ``G`` enters at :meth:`CompiledSlotProblem.solve_assignment` time --
    so the repeated ``with_expected_channels`` copies the greedy
    allocator creates for one slot all share a single compiled instance
    and its water-filling group cache.
    """
    key = tuple(problem.users)
    compiled = _COMPILE_CACHE.get(key)
    if compiled is None:
        compiled = CompiledSlotProblem(problem.users)
        _COMPILE_CACHE[key] = compiled
        if len(_COMPILE_CACHE) > _COMPILE_CACHE_SIZE:
            _COMPILE_CACHE.popitem(last=False)
    else:
        _COMPILE_CACHE.move_to_end(key)
    return compiled


def solve_given_assignment(problem: SlotProblem, mbs_user_ids) -> Allocation:
    """Exact solution of (17) for a fixed binary base-station assignment.

    Parameters
    ----------
    problem:
        The slot problem.
    mbs_user_ids:
        Users with ``p_j = 1`` (scheduled on the MBS); everyone else is on
        their associated FBS.
    """
    return compile_slot_problem(problem).solve_assignment(
        mbs_user_ids, problem.expected_channels)


def exhaustive_reference_solution(problem: SlotProblem, *,
                                  max_users: int = 16) -> Allocation:
    """Globally optimal solution by enumerating all binary assignments.

    By Theorem 1 the optimum of (12)/(17) has every ``p_j`` in ``{0, 1}``,
    so enumerating the ``2^K`` assignments and exactly water-filling each
    is an exact (if exponential) algorithm.

    Raises
    ------
    ConfigurationError
        If ``K > max_users`` -- the guard against accidentally launching an
        exponential search on a large instance.
    """
    if problem.n_users > max_users:
        raise ConfigurationError(
            f"exhaustive search limited to {max_users} users, got {problem.n_users}")
    user_ids = [user.user_id for user in problem.users]
    best: Allocation = None
    for pattern in itertools.product((False, True), repeat=len(user_ids)):
        assignment = {uid for uid, on_mbs in zip(user_ids, pattern) if on_mbs}
        candidate = solve_given_assignment(problem, assignment)
        if best is None or candidate.objective > best.objective:
            best = candidate
    return best
