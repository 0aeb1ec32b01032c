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

from typing import Dict

from repro.core.problem import (
    Allocation,
    SlotProblem,
    UserDemand,
    evaluate_objective,
    fbs_groups,
)


def mbs_condition(user: UserDemand) -> float:
    """Channel condition of the user's MBS link: expected PSNR rate."""
    return user.success_mbs * user.r_mbs


def fbs_condition(user: UserDemand, g_i: float) -> float:
    """Channel condition of the user's FBS link: expected PSNR rate."""
    return user.success_fbs * g_i * user.r_fbs


class EqualAllocationHeuristic:
    """Heuristic 1: local channel choice + equal time shares."""

    name = "heuristic1"

    def allocate(self, problem: SlotProblem) -> Allocation:
        """Allocate one slot.

        Each user independently compares its two links; ties go to the
        FBS (the femtocell is the designated server when neither link is
        better).  Stations then split their slot equally.
        """
        mbs_users = set()
        for user in problem.users:
            if mbs_condition(user) > fbs_condition(user, problem.g_for_user(user)):
                mbs_users.add(user.user_id)
        rho_mbs: Dict[int, float] = {}
        rho_fbs: Dict[int, float] = {}
        if mbs_users:
            share = 1.0 / len(mbs_users)
            for user_id in mbs_users:
                rho_mbs[user_id] = share
        users = problem.users
        for members in fbs_groups(users).values():
            cell = [users[j] for j in members if users[j].user_id not in mbs_users]
            if not cell:
                continue
            share = 1.0 / len(cell)
            for user in cell:
                rho_fbs[user.user_id] = share
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

    @staticmethod
    def _mbs_quality(user: UserDemand) -> float:
        return user.success_mbs

    @staticmethod
    def _fbs_quality(user: UserDemand, g_i: float) -> float:
        return user.success_fbs if g_i > 0 else 0.0

    def allocate(self, problem: SlotProblem) -> Allocation:
        """Allocate one slot.

        The MBS picks the user with the best common-channel quality among
        *all* users; each FBS picks the best-quality user in its cell.
        The MBS winner is served by the MBS even if it also wins its
        femtocell (single transceiver -- it cannot use both), in which
        case the FBS falls back to its next-best user.
        """
        rho_mbs: Dict[int, float] = {}
        rho_fbs: Dict[int, float] = {}
        mbs_users = set()

        mbs_winner = max(problem.users, key=self._mbs_quality, default=None)
        if mbs_winner is not None and self._mbs_quality(mbs_winner) > 0.0:
            mbs_users.add(mbs_winner.user_id)
            rho_mbs[mbs_winner.user_id] = 1.0

        users = problem.users
        for fbs_id, members in fbs_groups(users).items():
            g_i = problem.expected_channels[fbs_id]
            candidates = [users[j] for j in members
                          if users[j].user_id not in mbs_users]
            winner = max(candidates, key=lambda u: self._fbs_quality(u, g_i),
                         default=None)
            if winner is not None and self._fbs_quality(winner, g_i) > 0.0:
                rho_fbs[winner.user_id] = 1.0

        allocation = Allocation(mbs_user_ids=mbs_users, rho_mbs=rho_mbs, rho_fbs=rho_fbs)
        allocation.objective = evaluate_objective(problem, allocation)
        return allocation
