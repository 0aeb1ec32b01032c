"""One-pass per-FBS grouping, and the callers that must stay linear in it.

Every per-cell visit in the slot path -- the compiled exact solve, the
allocation check, the feasibility check and the two heuristics -- walks
the problem's per-FBS grouping (:attr:`repro.core.problem.StaticColumns.
groups`, one :func:`repro.core.problem.fbs_groups` pass when the problem
is built).  On the 20x20 city grid (400 FBSs, 1200 users) a per-FBS
rescan of the users costs 480k attribute reads per call; the counting
tests below keep those rescans from coming back.
"""

import numpy as np
import pytest

from repro.core.heuristics import EqualAllocationHeuristic, MultiuserDiversityHeuristic
from repro.core.problem import SlotProblem, UserDemand, fbs_groups
from repro.core.reference import CompiledSlotProblem
from repro.sim.fallback import check_allocation
from tests.conftest import random_problem
from tests.reference import check_feasible


class CountingUser(UserDemand):
    """A :class:`UserDemand` that counts reads of its ``fbs_id``."""

    reads = 0

    def __getattribute__(self, name):
        if name == "fbs_id":
            CountingUser.reads += 1
        return super().__getattribute__(name)


def counting_problem(n_users, n_fbss, seed=0):
    rng = np.random.default_rng(seed)
    users = [CountingUser(
        user_id=j, fbs_id=1 + j % n_fbss, w_prev=25.0 + 20.0 * rng.random(),
        success_mbs=float(rng.random()), success_fbs=float(rng.random()),
        r_mbs=float(2.0 * rng.random()), r_fbs=float(rng.random()))
        for j in range(n_users)]
    return SlotProblem(users=users,
                       expected_channels={i: 2.0 for i in range(1, n_fbss + 1)})


class TestFbsGroups:
    def test_matches_users_of_fbs_in_order(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            problem = random_problem(rng, max_users=12, max_fbss=5)
            users = problem.users
            groups = fbs_groups(users)
            assert list(groups) == problem.fbs_ids
            for fbs_id, members in groups.items():
                assert [users[j] for j in members] == problem.users_of_fbs(fbs_id)

    def test_unsorted_fbs_ids_come_back_sorted(self):
        users = counting_problem(6, 3).users[::-1]
        groups = fbs_groups(users)
        assert list(groups) == [1, 2, 3]
        assert all(members == sorted(members) for members in groups.values())

    def test_empty(self):
        assert fbs_groups([]) == {}


class TestLinearGrouping:
    """Each call reads every user's ``fbs_id`` a bounded number of times."""

    N_USERS = 1200
    #: Reads per user allowed in one call, whatever the FBS count.
    MAX_READS_PER_USER = 3

    def reads_per_call(self, call, n_fbss):
        problem = counting_problem(self.N_USERS, n_fbss)
        allocation = EqualAllocationHeuristic().allocate(problem)
        CountingUser.reads = 0
        call(problem, allocation)
        return CountingUser.reads

    @pytest.mark.parametrize("call", [
        lambda problem, allocation: CompiledSlotProblem(problem.columns),
        lambda problem, allocation: check_allocation(problem, allocation),
        lambda problem, allocation: check_feasible(problem, allocation),
        lambda problem, allocation: EqualAllocationHeuristic().allocate(problem),
        lambda problem, allocation: MultiuserDiversityHeuristic().allocate(problem),
    ], ids=["CompiledSlotProblem", "check_allocation", "check_feasible",
            "heuristic1", "heuristic2"])
    def test_reads_do_not_grow_with_the_fbs_count(self, call):
        counts = [self.reads_per_call(call, n_fbss) for n_fbss in (1, 40, 400)]
        assert max(counts) <= self.MAX_READS_PER_USER * self.N_USERS, counts
