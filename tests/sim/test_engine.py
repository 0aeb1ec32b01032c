"""Tests for the slotted simulation engine."""

import numpy as np
import pytest

from repro.sim.engine import SimulationEngine
from repro.sim.metrics import RunMetrics
from tests.reference import check_feasible, is_valid_allocation


class TestDeterminism:
    def test_same_seed_same_result(self, single_config):
        a = SimulationEngine(single_config).run()
        b = SimulationEngine(single_config).run()
        assert a.per_user_psnr == b.per_user_psnr
        assert np.array_equal(a.collision_rates, b.collision_rates)

    def test_different_seeds_differ(self, single_config):
        a = SimulationEngine(single_config.with_seed(1)).run()
        b = SimulationEngine(single_config.with_seed(2)).run()
        assert a.per_user_psnr != b.per_user_psnr

    def test_acceleration_and_memo_are_bit_identical(self, interfering_config):
        """The production path must equal the scalar oracle path."""
        from tests.oracle import scalar_path
        accel = SimulationEngine(interfering_config).run()
        with scalar_path():
            scalar = SimulationEngine(interfering_config).run()
        assert accel.per_user_psnr == scalar.per_user_psnr
        assert accel.upper_bound_psnr == scalar.upper_bound_psnr
        assert np.array_equal(accel.collision_rates, scalar.collision_rates)


class TestPhaseTimings:
    def test_phases_cover_the_run(self, single_config):
        engine = SimulationEngine(single_config)
        metrics = engine.run()
        assert set(metrics.phase_seconds) == {
            "sensing", "access", "allocation", "transmission"}
        assert all(v >= 0.0 for v in metrics.phase_seconds.values())
        assert sum(metrics.phase_seconds.values()) > 0.0
        assert metrics.phase_seconds == engine.phase_seconds


class TestSlotMechanics:
    def test_records_only_when_asked(self, single_config):
        engine = SimulationEngine(single_config)
        engine.step()
        assert engine.records == []
        recording = SimulationEngine(single_config, record_slots=True)
        recording.step()
        assert len(recording.records) == 1

    def test_every_slot_allocation_feasible(self, single_config):
        engine = SimulationEngine(single_config, record_slots=True)
        for _ in range(single_config.n_slots):
            record = engine.step()
            check_feasible(record.problem, record.allocation)

    def test_increments_consistent_with_allocation(self, single_config):
        engine = SimulationEngine(single_config, record_slots=True)
        for _ in range(10):
            record = engine.step()
            for user in record.problem.users:
                increment = record.increments[user.user_id]
                assert increment >= 0.0
                if record.allocation.time_share(user) == 0.0:
                    assert increment == 0.0

    def test_non_interfering_full_reuse(self, single_config):
        engine = SimulationEngine(single_config, record_slots=True)
        record = engine.step()
        available = set(record.access.available_channels.tolist())
        assert record.channel_allocation[1] == available
        assert record.greedy_trace is None
        assert record.bound_gap == 0.0

    def test_psnr_states_monotone_within_gop(self, single_config):
        engine = SimulationEngine(single_config)
        previous = {uid: clock.psnr_db for uid, clock in engine.clocks.items()}
        for slot in range(single_config.deadline_slots - 1):
            engine.step()
            for uid, clock in engine.clocks.items():
                assert clock.psnr_db >= previous[uid] - 1e-12
                previous[uid] = clock.psnr_db

    def test_gop_rollover(self, single_config):
        engine = SimulationEngine(single_config)
        for _ in range(single_config.deadline_slots):
            engine.step()
        for clock in engine.clocks.values():
            assert len(clock.completed_gop_psnrs) == 1
            assert clock.slot_in_window == 0


class TestInterferingPath:
    def test_greedy_trace_and_bound(self, interfering_config):
        engine = SimulationEngine(interfering_config, record_slots=True)
        record = engine.step()
        assert record.greedy_trace is not None
        assert record.bound_gap >= 0.0
        graph = interfering_config.topology.interference_graph
        assert is_valid_allocation(graph, record.channel_allocation)

    def test_heuristics_get_color_partition(self, interfering_config):
        config = interfering_config.with_scheme("heuristic1")
        engine = SimulationEngine(config, record_slots=True)
        record = engine.step()
        assert record.greedy_trace is None
        graph = config.topology.interference_graph
        assert is_valid_allocation(graph, record.channel_allocation)

    def test_upper_bound_at_least_mean(self, interfering_config):
        metrics = SimulationEngine(interfering_config).run()
        assert metrics.upper_bound_psnr >= metrics.mean_psnr - 1e-9


class TestRealizedThroughputMode:
    def test_realized_no_better_than_expected_mode(self, single_config):
        # Counting only truly idle channels (collisions destroy payload)
        # cannot beat the paper's expected-G recursion on average.
        expected_mode = SimulationEngine(single_config).run()
        realized_mode = SimulationEngine(
            single_config.replace(realized_throughput=True)).run()
        assert realized_mode.mean_psnr <= expected_mode.mean_psnr + 0.8

    def test_realized_mode_runs_interfering(self, interfering_config):
        metrics = SimulationEngine(
            interfering_config.replace(realized_throughput=True)).run()
        assert isinstance(metrics, RunMetrics)


class TestCollisionAccounting:
    def test_long_run_cap(self):
        from repro.experiments.scenarios import single_fbs_scenario
        config = single_fbs_scenario(n_gops=40, seed=5, scheme="heuristic1")
        engine = SimulationEngine(config)
        metrics = engine.run()
        assert np.all(metrics.collision_rates <= config.gamma + 0.05)


class TestAllSchemesRun:
    @pytest.mark.parametrize("scheme", ["proposed-fast", "heuristic1", "heuristic2"])
    def test_scheme_completes(self, single_config, scheme):
        metrics = SimulationEngine(single_config.with_scheme(scheme)).run()
        assert metrics.n_users == 3
        assert all(psnr >= 26.0 for psnr in metrics.per_user_psnr.values())
