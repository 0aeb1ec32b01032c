"""Differential tests: full simulation runs, batched backend vs oracle.

The unit-level suites (``tests/phy``, ``tests/sensing``) pin each
batched primitive; this suite pins the composition -- multi-slot
engine runs over fuzzed scenario configs must produce byte-identical
:class:`SlotRecord` streams and run metrics on the production path and
on the scalar oracle (``tests/oracle.py``), and the two must be freely
interchangeable mid-simulation because they consume the RNG streams
identically.
"""

import json
from contextlib import nullcontext

import numpy as np
import pytest

from repro.sim.checkpoint import run_metrics_to_dict
from repro.sim.engine import SimulationEngine
from repro.sim.runner import MonteCarloRunner

from tests.conftest import random_scenario
from tests.oracle import scalar_path

N_FUZZED_CONFIGS = 6
FUZZ_SLOTS = 12


def assert_records_equal(a, b, context=""):
    """Field-by-field bit-exact comparison of two SlotRecords."""
    assert a.slot == b.slot, context
    assert np.array_equal(a.occupancy, b.occupancy), context
    assert np.array_equal(a.access.posteriors, b.access.posteriors), context
    assert np.array_equal(a.access.access_probabilities,
                          b.access.access_probabilities), context
    assert np.array_equal(a.access.decisions, b.access.decisions), context
    assert a.channel_allocation == b.channel_allocation, context
    assert a.increments == b.increments, context
    assert a.bound_gap == b.bound_gap, context
    assert len(a.problem.users) == len(b.problem.users), context
    assert a.problem.expected_channels == b.problem.expected_channels, context
    for ua, ub in zip(a.problem.users, b.problem.users):
        assert ua == ub, f"{context}: user {ua.user_id}"
    assert a.allocation.mbs_user_ids == b.allocation.mbs_user_ids, context
    assert a.allocation.rho_mbs == b.allocation.rho_mbs, context
    assert a.allocation.rho_fbs == b.allocation.rho_fbs, context


def _backend(accelerated):
    """The production path (``True``) or the scalar oracle (``False``)."""
    return nullcontext() if accelerated else scalar_path()


def _run_slots(config, accelerated, n_slots):
    """Step ``n_slots`` slots under the chosen backend; return the records."""
    with _backend(accelerated):
        engine = SimulationEngine(config)
        return [engine.step() for _ in range(n_slots)]


def _metrics_fingerprint(metrics):
    return json.dumps(run_metrics_to_dict(metrics), sort_keys=True)


class TestFullRunEquivalence:
    def test_small_scenario_records_identical(self, small_scenario):
        scalar = _run_slots(small_scenario, False, small_scenario.n_slots)
        batched = _run_slots(small_scenario, True, small_scenario.n_slots)
        for a, b in zip(batched, scalar):
            assert_records_equal(a, b, f"slot {a.slot}")

    def test_fuzzed_configs_records_identical(self):
        rng = np.random.default_rng(20260806)
        for case in range(N_FUZZED_CONFIGS):
            config = random_scenario(rng)
            context = (f"case {case}: channels={config.n_channels}, "
                       f"eps={config.false_alarm}, delta={config.miss_detection}, "
                       f"policy={config.access_policy}, "
                       f"belief={config.belief_tracking}, "
                       f"single_obs={config.single_observation_fusion}, "
                       f"seed={config.seed}")
            scalar = _run_slots(config, False, FUZZ_SLOTS)
            batched = _run_slots(config, True, FUZZ_SLOTS)
            for a, b in zip(batched, scalar):
                assert_records_equal(a, b, f"{context}, slot {a.slot}")

    def test_run_metrics_identical(self, small_scenario):
        with scalar_path():
            scalar = SimulationEngine(small_scenario).run()
        batched = SimulationEngine(small_scenario).run()
        assert _metrics_fingerprint(batched) == _metrics_fingerprint(scalar)

    def test_backend_swap_mid_run(self, small_scenario):
        """Backends interleave freely because RNG consumption is identical.

        This is the property that makes checkpoints portable across
        backends: a run resumed under the other backend continues the
        exact same trajectory.
        """
        oracle = SimulationEngine(small_scenario)
        mixed = SimulationEngine(small_scenario)
        rng = np.random.default_rng(5)
        for slot in range(small_scenario.n_slots):
            with scalar_path():
                a = oracle.step()
            with _backend(bool(rng.integers(0, 2))):
                b = mixed.step()
            assert_records_equal(b, a, f"slot {slot}")


class TestRunnerEquivalence:
    def test_monte_carlo_fingerprints_identical(self, small_scenario):
        """Replicated runs (the checkpointed artifact) match backend-wise."""
        with scalar_path():
            scalar = MonteCarloRunner(small_scenario, n_runs=2).run_all()
        batched = MonteCarloRunner(small_scenario, n_runs=2).run_all()
        assert len(scalar) == len(batched) == 2
        for a, b in zip(batched, scalar):
            assert _metrics_fingerprint(a) == _metrics_fingerprint(b)
