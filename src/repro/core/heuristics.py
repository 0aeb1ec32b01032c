"""The paper's two comparison schemes (Section V).

* **Heuristic 1 -- equal allocation**: each CR user *locally* chooses the
  better base station (common channel vs its FBS's licensed channels)
  from the channel conditions, then every base station divides its slot
  equally among the users that chose it.
* **Heuristic 2 -- multiuser diversity**: the MBS and each FBS *globally*
  pick the single user with the best channel condition and give that user
  the entire slot.

Both heuristics work from the same channel statistics (eq. 8) the
proposed scheme uses -- neither side holds an information advantage --
but they are *application-agnostic*: they rank by channel condition
alone, blind to video rate-distortion slopes and to how much of the
current GOP has already been delivered.  That missing cross-layer
information (which the proposed scheme folds into its objective) is
what the paper's evaluation quantifies.

Both schemes produce :class:`~repro.core.problem.Allocation` objects, so
the simulation engine treats them interchangeably with the proposed
algorithms.
"""

from __future__ import annotations

from typing import Dict, Set

from repro.core.problem import (
    Allocation,
    SlotProblem,
    UserDemand,
    evaluate_objective,
)


def mbs_condition(user: UserDemand) -> float:
    """Channel condition of the user's MBS link: expected PSNR rate."""
    return user.success_mbs * user.r_mbs


def fbs_condition(user: UserDemand, g_i: float) -> float:
    """Channel condition of the user's FBS link: expected PSNR rate."""
    return user.success_fbs * g_i * user.r_fbs


def local_mbs_choice(problem: SlotProblem) -> Set[int]:
    """Users whose MBS link is the better one, by the local rule.

    A user picks the MBS when :func:`mbs_condition` exceeds
    :func:`fbs_condition` at its FBS's ``G_i``; ties go to the FBS (the
    femtocell is the designated server when neither link is better).
    Read from the problem's columns, in user order.
    """
    columns = problem.columns
    static = columns.static
    expected = problem.expected_channels
    success_mbs = static.success_mbs
    success_fbs = static.success_fbs
    fbs_of = static.fbs_id
    r_mbs = columns.r_mbs
    r_fbs = columns.r_fbs
    return {user_id for j, user_id in enumerate(static.user_ids)
            if success_mbs[j] * r_mbs[j]
            > success_fbs[j] * expected[fbs_of[j]] * r_fbs[j]}


class EqualAllocationHeuristic:
    """Heuristic 1: local channel choice + equal time shares."""

    name = "heuristic1"

    def allocate(self, problem: SlotProblem) -> Allocation:
        """Allocate one slot.

        Each user independently compares its two links
        (:func:`local_mbs_choice`).  Stations then split their slot
        equally.
        """
        mbs_users = local_mbs_choice(problem)
        rho_mbs: Dict[int, float] = {}
        rho_fbs: Dict[int, float] = {}
        if mbs_users:
            share = 1.0 / len(mbs_users)
            for user_id in mbs_users:
                rho_mbs[user_id] = share
        static = problem.columns.static
        user_ids = static.user_ids
        for members in static.groups.values():
            cell = [user_ids[j] for j in members
                    if user_ids[j] not in mbs_users]
            if not cell:
                continue
            share = 1.0 / len(cell)
            for user_id in cell:
                rho_fbs[user_id] = share
        allocation = Allocation(mbs_user_ids=mbs_users, rho_mbs=rho_mbs, rho_fbs=rho_fbs)
        allocation.objective = evaluate_objective(problem, allocation)
        return allocation


class MultiuserDiversityHeuristic:
    """Heuristic 2: every base station serves only its best user.

    "Best channel condition" is read literally: the base station ranks
    users by link quality (success probability, i.e. SINR ordering).
    Like Heuristic 1, the scheme is channel-aware but application-
    agnostic -- it does not track video rate-distortion slopes or how
    much of the current GOP is already delivered -- which is precisely
    the cross-layer information the proposed scheme exploits.
    """

    name = "heuristic2"

    def allocate(self, problem: SlotProblem) -> Allocation:
        """Allocate one slot.

        The MBS picks the user with the best common-channel quality among
        *all* users; each FBS with channels (``G_i > 0``) picks the
        best-quality user in its cell.  Ties go to the earlier user, and
        a station whose best quality is zero serves nobody.  The MBS
        winner is served by the MBS even if it also wins its femtocell
        (single transceiver -- it cannot use both), in which case the
        FBS falls back to its next-best user.
        """
        rho_mbs: Dict[int, float] = {}
        rho_fbs: Dict[int, float] = {}
        mbs_users = set()
        static = problem.columns.static
        user_ids = static.user_ids
        success_mbs = static.success_mbs
        success_fbs = static.success_fbs

        winner = max(range(len(static)), key=success_mbs.__getitem__)
        if success_mbs[winner] > 0.0:
            mbs_users.add(user_ids[winner])
            rho_mbs[user_ids[winner]] = 1.0

        for fbs_id, members in static.groups.items():
            if not problem.expected_channels[fbs_id] > 0:
                continue
            candidates = [j for j in members if user_ids[j] not in mbs_users]
            if not candidates:
                continue
            winner = max(candidates, key=success_fbs.__getitem__)
            if success_fbs[winner] > 0.0:
                rho_fbs[user_ids[winner]] = 1.0

        allocation = Allocation(mbs_user_ids=mbs_users, rho_mbs=rho_mbs, rho_fbs=rho_fbs)
        allocation.objective = evaluate_objective(problem, allocation)
        return allocation
