"""Tests for the slot-problem data model."""

import math

import pytest

from repro.core.problem import Allocation, SlotProblem, UserDemand, evaluate_objective
from repro.utils.errors import ConfigurationError
from tests.conftest import make_problem, make_user
from tests.reference import check_feasible


class TestUserDemand:
    def test_valid(self):
        user = make_user()
        assert user.fbs_id == 1

    def test_mbs_id_rejected(self):
        with pytest.raises(ConfigurationError):
            make_user(fbs_id=0)

    def test_nonpositive_state_rejected(self):
        with pytest.raises(ConfigurationError):
            make_user(w_prev=0.0)

    def test_bad_probability_rejected(self):
        with pytest.raises(ConfigurationError):
            make_user(success_mbs=1.2)

    def test_negative_rate_rejected(self):
        with pytest.raises(ConfigurationError):
            make_user(r_mbs=-0.1)

    def test_zero_rates_allowed(self):
        # Saturated GOP: no data left to send.
        user = make_user(r_mbs=0.0, r_fbs=0.0)
        assert user.r_mbs == 0.0

    def test_csi_optional_and_validated(self):
        assert make_user().csi_mbs is None
        assert make_user(csi_mbs=1.5, csi_fbs=0.2).csi_mbs == 1.5
        with pytest.raises(ConfigurationError):
            make_user(csi_mbs=-1.0)


class TestSlotProblem:
    def test_structure(self):
        problem = make_problem(4, n_fbss=2)
        assert problem.n_users == 4
        assert problem.fbs_ids == [1, 2]
        assert len(problem.users_of_fbs(1)) == 2

    def test_g_for_user(self):
        problem = make_problem(2, g=3.5)
        assert problem.g_for_user(problem.users[0]) == 3.5

    def test_with_expected_channels(self):
        problem = make_problem(2)
        updated = problem.with_expected_channels({1: 9.0})
        assert updated.expected_channels[1] == 9.0
        assert problem.expected_channels[1] == 2.0  # original untouched

    def test_empty_users_rejected(self):
        with pytest.raises(ConfigurationError):
            SlotProblem(users=[], expected_channels={})

    def test_duplicate_users_rejected(self):
        users = [make_user(0), make_user(0)]
        with pytest.raises(ConfigurationError):
            SlotProblem(users=users, expected_channels={1: 1.0})

    def test_missing_g_rejected(self):
        with pytest.raises(ConfigurationError):
            SlotProblem(users=[make_user(fbs_id=2)], expected_channels={1: 1.0})

    def test_negative_g_rejected(self):
        with pytest.raises(ConfigurationError):
            SlotProblem(users=[make_user()], expected_channels={1: -0.5})


class TestObjective:
    def test_expected_log_gain(self):
        user = make_user(w_prev=30.0, success_mbs=0.8, r_mbs=1.0)
        problem = SlotProblem(users=[user], expected_channels={1: 2.0})
        allocation = Allocation(mbs_user_ids={0}, rho_mbs={0: 0.5}, rho_fbs={})
        expected = 0.8 * (math.log(30.5) - math.log(30.0))
        assert evaluate_objective(problem, allocation) == pytest.approx(expected)

    def test_zero_allocation_zero_objective(self):
        problem = make_problem(3)
        allocation = Allocation(mbs_user_ids=set(), rho_mbs={}, rho_fbs={})
        assert evaluate_objective(problem, allocation) == pytest.approx(0.0)

    def test_only_selected_branch_counts(self):
        user = make_user(w_prev=30.0, success_fbs=0.9, r_fbs=1.0)
        problem = SlotProblem(users=[user], expected_channels={1: 2.0})
        # User on FBS: any stray rho_mbs value is ignored by the objective.
        allocation = Allocation(mbs_user_ids=set(), rho_mbs={0: 0.7}, rho_fbs={0: 0.5})
        expected = 0.9 * (math.log(30.0 + 0.5 * 2.0) - math.log(30.0))
        assert evaluate_objective(problem, allocation) == pytest.approx(expected)


class TestFeasibility:
    def test_feasible_passes(self):
        problem = make_problem(2)
        allocation = Allocation(mbs_user_ids={0}, rho_mbs={0: 1.0}, rho_fbs={1: 1.0})
        check_feasible(problem, allocation)

    def test_mbs_oversubscription_detected(self):
        problem = make_problem(2)
        allocation = Allocation(mbs_user_ids={0, 1},
                                rho_mbs={0: 0.7, 1: 0.7}, rho_fbs={})
        with pytest.raises(ConfigurationError, match="common-channel"):
            check_feasible(problem, allocation)

    def test_fbs_oversubscription_detected(self):
        problem = make_problem(2)
        allocation = Allocation(mbs_user_ids=set(), rho_mbs={},
                                rho_fbs={0: 0.6, 1: 0.6})
        with pytest.raises(ConfigurationError, match="FBS 1"):
            check_feasible(problem, allocation)

    def test_negative_share_detected(self):
        problem = make_problem(1)
        allocation = Allocation(mbs_user_ids={0}, rho_mbs={0: -0.2}, rho_fbs={})
        with pytest.raises(ConfigurationError, match="negative"):
            check_feasible(problem, allocation)

    def test_stray_share_on_unselected_station_detected(self):
        problem = make_problem(1)
        allocation = Allocation(mbs_user_ids={0}, rho_mbs={0: 0.5},
                                rho_fbs={0: 0.5})
        with pytest.raises(ConfigurationError, match="Theorem 1"):
            check_feasible(problem, allocation)


class TestAllocationHelpers:
    def test_time_share_and_uses_mbs(self):
        problem = make_problem(2)
        allocation = Allocation(mbs_user_ids={0}, rho_mbs={0: 0.4}, rho_fbs={1: 0.6})
        assert allocation.uses_mbs(0)
        assert not allocation.uses_mbs(1)
        assert allocation.time_share(problem.users[0]) == 0.4
        assert allocation.time_share(problem.users[1]) == 0.6
