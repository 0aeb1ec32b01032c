"""Exact solves of the per-slot problem for a fixed assignment.

Given the binary base-station assignment, each base station's
subproblem of (12)/(17) is a weighted log-utility water-filling over the
slot simplex, solved exactly in closed form by a breakpoint scan on the
KKT multiplier.  The dual solver's primal recovery and ``flip_polish``
call it thousands of times per slot; the exhaustive oracles the test
suite certifies the distributed algorithms with (``tests/reference.py``)
enumerate assignments over it.

The water-filling step (:func:`_water_filling`, DESIGN §10) is one
breakpoint scan over Python float lists: a stable descending sort of the
breakpoints, left-to-right running sums, and an objective summed with
``math.log1p`` in ascending index order over the users with positive
share (a zero share adds an exact ``+0.0``, so skipping it is lossless).
It reproduces the scalar oracle in ``tests/oracle.py`` bit for bit.  The
groups it solves hold one to a few users (one per FBS cell, plus the
MBS group), where numpy's per-call fixed cost outweighs any
vectorisation; DESIGN §10 has the measurements.

:func:`compile_slot_problem` returns the slot's :class:`CompiledSlotProblem`
-- the group cache over the problem's columns, per (station, member
set) -- built on first use and kept on the slot's
:class:`~repro.core.problem.SlotColumns`, which every
``with_expected_channels`` copy of the slot shares.  So the thousands of
``solve_given_assignment`` calls issued per slot by ``flip_polish`` and
the dual solver's primal recovery, across all the greedy's ``Q(c)``
variants of the slot, stop re-solving identical subgroups.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

from repro.core.problem import Allocation, SlotColumns, SlotProblem
from repro.utils.errors import ConfigurationError


def _water_filling(weights: List[float], bases: List[float],
                   slopes: List[float]) -> Tuple[List[float], float]:
    """Exact breakpoint scan; bit-identical to the scalar oracle.

    Inputs are lists of equal length, with positive bases and
    non-negative weights and slopes.  KKT: ``rho_j(lam) =
    (w_j / lam - c_j)^+`` with ``c_j = W_j / s_j``; the budget always
    binds under log utility, so ``lam`` solves ``sum_{j in S} (w_j / lam
    - c_j) = 1`` over the active set ``S = {j : w_j / c_j > lam}``.
    Scanning users in decreasing order of their activation breakpoint
    ``w_j / c_j``, exactly one prefix yields ``lam = sum(w) / (1 +
    sum(c))`` consistent with its own membership -- an exact O(K log K)
    water-filling.  When subnormal weights/slopes underflow the water
    level, the utilities involved are ~0, so any feasible choice is
    optimal to machine precision and the best-breakpoint user is served.

    A cost that underflows to zero raises ``ZeroDivisionError`` from
    ``w / c``, as the oracle does.  A NaN breakpoint (a NaN base, or an
    infinite weight over an infinite cost) ranks after every number, in
    index order; no comparison with it holds.
    """
    n = len(weights)
    rho = [0.0] * n
    active: List[int] = []
    costs: List[float] = []
    keys: List[float] = []
    nan_keys = False
    for j in range(n):
        w = weights[j]
        s = slopes[j]
        if w > 0 and s > 0:
            c = bases[j] / s
            key = w / c
            if key != key:
                nan_keys = True
            active.append(j)
            costs.append(c)
            keys.append(key)
    if active:
        if nan_keys:
            # Python's sort cannot rank a NaN: rank the numbers, then
            # append the NaN breakpoints in index order.
            order = sorted((p for p, key in enumerate(keys) if key == key),
                           key=keys.__getitem__, reverse=True)
            order += [p for p, key in enumerate(keys) if key != key]
        else:
            order = sorted(range(len(active)), key=keys.__getitem__,
                           reverse=True)
        weight_sum = 0.0
        cost_sum = 0.0
        lam = None
        last = len(order) - 1
        for position, p in enumerate(order):
            weight_sum += weights[active[p]]
            cost_sum += costs[p]
            candidate = weight_sum / (1.0 + cost_sum)
            if candidate >= (keys[order[position + 1]]
                             if position < last else 0.0):
                lam = candidate
                members = order[:position + 1]
                break
        if lam is None or lam <= 0.0:
            rho[active[order[0]]] = 1.0
        else:
            raw = []
            raw_total = 0.0
            for p in members:
                share = weights[active[p]] / lam - costs[p]
                if share < 0.0:
                    share = 0.0
                raw.append(share)
                raw_total += share
            if raw_total > 0.0:
                # Snap the rounding residual onto the simplex boundary.
                raw = [share / raw_total for share in raw]
            for p, share in zip(members, raw):
                rho[active[p]] = share
    value = 0.0
    for j in range(n):
        share = rho[j]
        if share > 0.0:
            value += weights[j] * math.log1p(share * slopes[j] / bases[j])
    return rho, value


class CompiledSlotProblem:
    """A slot's per-station water-filling results, cached per group.

    ``solve_given_assignment`` decomposes into independent water-filling
    subproblems, one per base station, and the subproblem for a station
    depends only on *which* users sit on it and (for an FBS) on its own
    ``G_i`` -- not on how the remaining users are assigned, nor on the
    other stations' ``G`` values.  ``flip_polish``, the dual solver's
    primal recovery, and the greedy allocator's hundreds of per-slot
    ``with_expected_channels`` variants therefore re-solve the same
    (station, member set, ``G_i``) groups over and over; this class
    caches each group's exact water-filling result.  In particular the
    MBS group is independent of ``G`` entirely, so it is shared across
    every channel allocation candidate the greedy evaluates in a slot.

    It reads the slot's columns and the scenario's per-FBS grouping
    (:class:`~repro.core.problem.StaticColumns`), and copies nothing:
    a group's inputs are read from the columns when the group is first
    solved.
    """

    def __init__(self, columns: SlotColumns) -> None:
        self._columns = columns
        static = columns.static
        self.user_ids = static.user_ids
        self._id_set = static.id_set
        self._members = static.groups
        # (station, member index tuple, g) -> (shares list, value);
        # station 0 is the MBS (g None there).  Bounded by the number of
        # distinct groups one slot's solvers actually visit.
        self._group_cache: Dict[tuple, Tuple[List[float], float]] = {}

    def _group_solution(self, station: int, members: tuple,
                        g: Optional[float]) -> Tuple[List[float], float]:
        key = (station, members, g)
        cached = self._group_cache.get(key)
        if cached is None:
            columns = self._columns
            w_prev = columns.w_prev
            bases = [w_prev[j] for j in members]
            if station == 0:
                weights = [columns.static.success_mbs[j] for j in members]
                slopes = [columns.r_mbs[j] for j in members]
            else:
                weights = [columns.static.success_fbs[j] for j in members]
                r_fbs = columns.r_fbs
                slopes = [g * r_fbs[j] for j in members]
            cached = self._group_cache[key] = _water_filling(
                weights, bases, slopes)
        return cached

    def solve_assignment(self, mbs_user_ids,
                         expected_channels: Dict[int, float]) -> Allocation:
        """Exact solution of (17) for a fixed binary assignment."""
        mbs_user_ids = set(mbs_user_ids)
        unknown = mbs_user_ids - self._id_set
        if unknown:
            raise ConfigurationError(
                f"assignment references unknown users {sorted(unknown)}")
        user_ids = self.user_ids
        rho_mbs: Dict[int, float] = {}
        rho_fbs: Dict[int, float] = {}
        objective = 0.0
        on_mbs = tuple(j for j, user_id in enumerate(user_ids)
                       if user_id in mbs_user_ids)
        if on_mbs:
            shares, value = self._group_solution(0, on_mbs, None)
            for j, share in zip(on_mbs, shares):
                rho_mbs[user_ids[j]] = share
            objective += value
        for fbs_id, cell in self._members.items():
            members = tuple(j for j in cell
                            if user_ids[j] not in mbs_user_ids)
            if not members:
                continue
            shares, value = self._group_solution(
                fbs_id, members, expected_channels[fbs_id])
            for j, share in zip(members, shares):
                rho_fbs[user_ids[j]] = share
            objective += value
        return Allocation(mbs_user_ids=mbs_user_ids, rho_mbs=rho_mbs,
                          rho_fbs=rho_fbs, objective=objective)


def compile_slot_problem(problem: SlotProblem) -> CompiledSlotProblem:
    """The compiled form of ``problem``'s slot, built once per slot.

    It lives on the problem's :class:`~repro.core.problem.SlotColumns`
    -- ``G`` enters at :meth:`CompiledSlotProblem.solve_assignment` time
    -- so the repeated ``with_expected_channels`` copies the greedy
    allocator creates for one slot all share a single compiled instance
    and its water-filling group cache, and it goes when the slot goes.
    """
    columns = problem.columns
    compiled = columns.compiled
    if compiled is None:
        compiled = columns.compiled = CompiledSlotProblem(columns)
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
