"""The per-slot resource-allocation problem.

Section IV decomposes the multistage stochastic program (10) into ``T``
serial per-slot convex programs (problem (11)/(12)); this module is the
data model for one such slot.  In the unified notation of problem (17)
(which covers the single-FBS case with ``N = 1``):

    maximize  sum_j [ p_j * sP0_j * (log(W_j + rho0_j * R0_j) - log W_j)
                    + q_j * sPi_j * (log(W_j + rhoi_j * G_i * R1_j) - log W_j) ]
    s.t.      sum_j rho0_j <= 1                      (common channel)
              sum_{j in U_i} rhoi_j <= 1  for all i  (each FBS's slot)
              p_j + q_j = 1,  all variables >= 0

where ``sP0_j = bar P^F_{0,j}`` and ``sPi_j = bar P^F_{i,j}`` are the
slot's link success probabilities, ``W_j`` the accumulated PSNR state,
``R0_j = beta_j B0 / T`` and ``R1_j = beta_j B1 / T`` the per-slot PSNR
increments, and ``G_i`` the expected number of licensed channels available
to FBS ``i`` after sensing, access control, and (in the interfering case)
channel allocation.

A note on fidelity to the paper's eq. (12).  Expanding the conditional
expectation of eq. (11) over the Bernoulli loss indicator ``xi`` gives,
for the MBS branch, ``sP0 * log(W + rho0 R0) + (1 - sP0) * log(W)`` --
the failure term ``(1 - sP) log W`` is part of the expectation but is
dropped in the paper's printed eq. (12).  Because that term is constant
in ``rho`` it never changes the water-filling step (Table I, step 3),
but it *does* matter for the MBS-vs-FBS branch comparison: without it,
the comparison is dominated by ``(sP0 - sP1) * log W`` and users with a
slightly weaker link simply idle, contradicting the optimality the paper
claims for (11).  We therefore keep the full expectation of eq. (11) and
subtract the allocation-independent constant ``sum_j log W_j``, i.e. the
objective implemented everywhere in this package is the **expected
log-PSNR gain** of the slot.  The per-branch objective is then
``sP * (log(W + rho * slope) - log W)``, which is non-negative, zero at
``rho = 0``, and reduces to the paper's comparison whenever
``sP0_j = sP1_j``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.utils.errors import ConfigurationError
from repro.utils.validation import check_positive, check_probability

#: Numerical slack tolerated when checking simplex feasibility.
FEASIBILITY_TOL = 1e-9


@dataclass(frozen=True)
class UserDemand:
    """One CR user's view of the slot's allocation problem.

    Attributes
    ----------
    user_id:
        Stable identifier (used to report allocations).
    fbs_id:
        The associated FBS (1-based; 0 is reserved for the MBS).
    w_prev:
        Accumulated PSNR state ``W_j^{t-1}`` in dB; strictly positive
        (initialised to the base-layer quality ``alpha_j``).
    success_mbs:
        ``bar P^F_{0,j}`` -- probability a slot on the MBS link decodes.
    success_fbs:
        ``bar P^F_{i,j}`` -- probability a slot on the FBS link decodes.
    r_mbs:
        ``R_{0,j} = beta_j B0 / T`` -- PSNR increment per unit time share
        on the common channel.
    r_fbs:
        ``R_{1,j} = beta_j B1 / T`` -- PSNR increment per unit time share
        per licensed channel.
    csi_mbs, csi_fbs:
        Optional realised block-fading SINR *margins* (``X / H``; the
        link decodes this slot iff the margin exceeds 1).  The proposed
        algorithms never read these -- they optimise expectations, as
        problem (10) prescribes -- but the heuristic baselines schedule on
        instantaneous channel conditions (Section V) and the engine's
        transmission phase realises the loss indicators ``xi`` from them.
    """

    user_id: int
    fbs_id: int
    w_prev: float
    success_mbs: float
    success_fbs: float
    r_mbs: float
    r_fbs: float
    csi_mbs: Optional[float] = None
    csi_fbs: Optional[float] = None

    def __post_init__(self) -> None:
        if self.fbs_id < 1:
            raise ConfigurationError(
                f"fbs_id must be >= 1 (0 is the MBS), got {self.fbs_id}")
        check_positive(self.w_prev, "w_prev")
        check_probability(self.success_mbs, "success_mbs")
        check_probability(self.success_fbs, "success_fbs")
        check_positive(self.r_mbs, "r_mbs", allow_zero=True)
        check_positive(self.r_fbs, "r_fbs", allow_zero=True)
        for name in ("csi_mbs", "csi_fbs"):
            value = getattr(self, name)
            if value is not None:
                check_positive(value, name, allow_zero=True)


@dataclass(frozen=True)
class SlotProblem:
    """A complete per-slot allocation problem instance.

    Attributes
    ----------
    users:
        The ``K`` user demands.
    expected_channels:
        ``{fbs_id: G_i}`` -- expected available licensed channels per FBS
        for this slot.  In the single-FBS and non-interfering cases every
        FBS sees the full ``G_t``; in the interfering case the greedy
        channel allocation determines each ``G_i``.
    """

    users: Sequence[UserDemand]
    expected_channels: Dict[int, float]

    def __post_init__(self) -> None:
        if not self.users:
            raise ConfigurationError("a SlotProblem needs at least one user")
        ids = [user.user_id for user in self.users]
        if len(set(ids)) != len(ids):
            raise ConfigurationError(f"duplicate user_id values in {ids}")
        for fbs_id, value in self.expected_channels.items():
            if fbs_id < 1:
                raise ConfigurationError(
                    f"expected_channels key must be an FBS id >= 1, got {fbs_id}")
            if value < 0:
                raise ConfigurationError(
                    f"G for FBS {fbs_id} must be non-negative, got {value}")
        missing = {user.fbs_id for user in self.users} - set(self.expected_channels)
        if missing:
            raise ConfigurationError(
                f"expected_channels missing entries for FBS ids {sorted(missing)}")

    @property
    def n_users(self) -> int:
        """Number of CR users ``K``."""
        return len(self.users)

    @property
    def fbs_ids(self) -> List[int]:
        """Sorted FBS ids that have at least one associated user."""
        return sorted({user.fbs_id for user in self.users})

    def users_of_fbs(self, fbs_id: int) -> List[UserDemand]:
        """The user set ``U_i`` of FBS ``fbs_id``.

        One scan of the users; to visit every cell, use
        :func:`fbs_groups`, which scans them once for all cells.
        """
        return [user for user in self.users if user.fbs_id == fbs_id]

    def g_for_user(self, user: UserDemand) -> float:
        """``G_i`` of the user's associated FBS."""
        return self.expected_channels[user.fbs_id]

    def with_expected_channels(self, expected_channels: Dict[int, float]) -> "SlotProblem":
        """Copy of this problem with a different channel allocation outcome."""
        return replace(self, expected_channels=dict(expected_channels))


def fbs_groups(users: Sequence[UserDemand]) -> Dict[int, List[int]]:
    """Positions of ``users`` per FBS, from one pass over the users.

    Keys are the FBS ids in ascending order (:attr:`SlotProblem.fbs_ids`)
    and each list holds the positions of that FBS's users in user order,
    so ``[users[j] for j in fbs_groups(users)[i]]`` is
    ``users_of_fbs(i)``.  Each user's ``fbs_id`` is read once, which
    keeps a visit to every cell linear in the users rather than
    ``O(users x FBSs)``.
    """
    groups: Dict[int, List[int]] = {}
    for j, user in enumerate(users):
        fbs_id = user.fbs_id
        members = groups.get(fbs_id)
        if members is None:
            groups[fbs_id] = [j]
        else:
            members.append(j)
    return {fbs_id: groups[fbs_id] for fbs_id in sorted(groups)}


@dataclass
class Allocation:
    """A (candidate) solution of a :class:`SlotProblem`.

    Attributes
    ----------
    mbs_user_ids:
        Users scheduled on the MBS this slot (``p_j = 1``; Theorem 1
        guarantees the optimal ``p`` is binary).
    rho_mbs:
        ``{user_id: rho_{0,j}}`` time shares on the common channel.
    rho_fbs:
        ``{user_id: rho_{i,j}}`` time shares on the user's FBS.
    objective:
        Objective value of problem (17) at this allocation, when known.
    """

    mbs_user_ids: set
    rho_mbs: Dict[int, float]
    rho_fbs: Dict[int, float]
    objective: float = field(default=float("nan"))

    def time_share(self, user: UserDemand) -> float:
        """The share actually used by ``user`` on its chosen base station."""
        if user.user_id in self.mbs_user_ids:
            return self.rho_mbs.get(user.user_id, 0.0)
        return self.rho_fbs.get(user.user_id, 0.0)

    def uses_mbs(self, user_id: int) -> bool:
        """Whether the user is scheduled on the MBS this slot."""
        return user_id in self.mbs_user_ids


def evaluate_objective(problem: SlotProblem, allocation: Allocation) -> float:
    """Objective (expected log-PSNR gain) of problem (17) at ``allocation``.

    Only the branch each user actually selected contributes, matching the
    binary optimal ``p`` of Theorem 1; the time share of the non-selected
    base station is treated as zero.  See the module docstring for why the
    per-user term is ``sP * (log(W + rho * slope) - log W)``.
    """
    total = 0.0
    for user in problem.users:
        if allocation.uses_mbs(user.user_id):
            rho = allocation.rho_mbs.get(user.user_id, 0.0)
            total += user.success_mbs * (
                np.log(user.w_prev + rho * user.r_mbs) - np.log(user.w_prev))
        else:
            rho = allocation.rho_fbs.get(user.user_id, 0.0)
            g_i = problem.g_for_user(user)
            total += user.success_fbs * (
                np.log(user.w_prev + rho * g_i * user.r_fbs) - np.log(user.w_prev))
    return float(total)


def check_feasible(problem: SlotProblem, allocation: Allocation, *,
                   tol: float = FEASIBILITY_TOL) -> None:
    """Raise ``ConfigurationError`` unless ``allocation`` is feasible.

    Checks non-negativity, the common-channel simplex, each FBS's simplex,
    and that no user holds time on the base station it did not select.
    """
    for mapping, label in ((allocation.rho_mbs, "rho_mbs"), (allocation.rho_fbs, "rho_fbs")):
        for user_id, rho in mapping.items():
            if rho < -tol:
                raise ConfigurationError(f"{label}[{user_id}] = {rho} is negative")
    mbs_total = sum(allocation.rho_mbs.get(u.user_id, 0.0)
                    for u in problem.users if allocation.uses_mbs(u.user_id))
    if mbs_total > 1.0 + tol:
        raise ConfigurationError(f"common-channel shares sum to {mbs_total} > 1")
    users = problem.users
    for fbs_id, members in fbs_groups(users).items():
        fbs_total = sum(allocation.rho_fbs.get(users[j].user_id, 0.0)
                        for j in members
                        if not allocation.uses_mbs(users[j].user_id))
        if fbs_total > 1.0 + tol:
            raise ConfigurationError(
                f"FBS {fbs_id} shares sum to {fbs_total} > 1")
    for user in problem.users:
        if allocation.uses_mbs(user.user_id):
            stray = allocation.rho_fbs.get(user.user_id, 0.0)
        else:
            stray = allocation.rho_mbs.get(user.user_id, 0.0)
        if stray > tol:
            raise ConfigurationError(
                f"user {user.user_id} holds time share {stray} on its "
                f"non-selected base station (Theorem 1 violated)")
