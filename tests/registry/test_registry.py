"""Registry error paths and capability-flag enforcement.

Covers the failure modes a third-party registration can hit: duplicate
names, unknown lookups (the error must list what *is* registered),
option passing to schemes that take none, the capability flags'
effects, and the identity stamp's flow into the config hashes and
checkpoint headers.
"""

import pytest

from repro.core.allocator import ProposedAllocator, get_allocator
from repro.core.heuristics import EqualAllocationHeuristic
from repro.experiments.scenarios import interfering_fbs_scenario
from repro.registry import SchemeInfo, scenario_registry, scheme_registry
from repro.sim.checkpoint import SweepCheckpoint
from repro.sim.config import ScenarioConfig
from repro.sim.fallback import fallback_chain_for
from repro.store.confighash import config_hash, scenario_hash
from repro.utils.errors import CheckpointError, ConfigurationError


class TestSchemeRegistryErrors:
    def test_duplicate_registration_rejected(self):
        registry = scheme_registry()
        existing = registry.get("proposed")
        with pytest.raises(ConfigurationError, match="already registered"):
            registry.register(existing)

    def test_unknown_scheme_lists_registered_names(self):
        with pytest.raises(ConfigurationError) as excinfo:
            get_allocator("no-such-scheme")
        message = str(excinfo.value)
        for name in scheme_registry().names():
            assert name in message

    def test_unknown_scheme_rejected_by_config_validation(self):
        base = interfering_fbs_scenario(n_gops=1, seed=7)
        with pytest.raises(ConfigurationError) as excinfo:
            ScenarioConfig(topology=base.topology, scheme="no-such-scheme")
        assert "graph-coloring" in str(excinfo.value)

    def test_optionless_scheme_refuses_options(self):
        for scheme in ("heuristic1", "heuristic2", "graph-coloring"):
            with pytest.raises(ConfigurationError,
                               match="accepts no options"):
                get_allocator(scheme, max_iterations=100)

    def test_fast_scheme_refuses_solver_options(self):
        # The fast solver has no tunables: options must not be dropped
        # silently, whatever their value.
        with pytest.raises(ConfigurationError, match="accepts no options"):
            get_allocator("proposed-fast", step_size=-5)
        with pytest.raises(ConfigurationError, match="accepts no options"):
            get_allocator("proposed-fast", max_iterations=1, step_size=-5)
        with pytest.raises(ConfigurationError):
            ProposedAllocator(fast=True, step_size=-5)
        assert get_allocator("proposed-fast").name == "proposed-fast"

    def test_temporary_registration_is_scoped(self):
        registry = scheme_registry()
        info = SchemeInfo(name="scoped-test-scheme",
                          factory=EqualAllocationHeuristic)
        with registry.temporarily(info):
            assert "scoped-test-scheme" in registry
        assert "scoped-test-scheme" not in registry


class TestScenarioRegistryErrors:
    def test_duplicate_registration_rejected(self):
        registry = scenario_registry()
        existing = registry.get("single")
        with pytest.raises(ConfigurationError, match="already registered"):
            registry.register(existing)

    def test_unknown_scenario_lists_registered_names(self):
        with pytest.raises(ConfigurationError) as excinfo:
            scenario_registry().build("no-such-scenario")
        message = str(excinfo.value)
        for name in scenario_registry().names():
            assert name in message


class TestGeneratorIdentity:
    def test_build_stamps_generator_and_params(self):
        config = scenario_registry().build(
            "interfering", n_channels=6, n_gops=1, seed=11,
            scheme="heuristic1")
        assert config.generator == "interfering"
        # Run-only parameters never enter the identity stamp.
        assert config.generator_params == (("n_channels", 6),)

    def test_schemes_share_one_scenario_hash(self):
        registry = scenario_registry()
        a = registry.build("interfering", n_channels=6, scheme="proposed")
        b = registry.build("interfering", n_channels=6, scheme="heuristic2")
        assert scenario_hash(a) == scenario_hash(b)
        assert config_hash(a) != config_hash(b)

    def test_generator_params_separate_scenario_hashes(self):
        registry = scenario_registry()
        a = registry.build("city-grid", rows=2, cols=2, n_gops=1)
        b = registry.build("city-grid", rows=2, cols=3, n_gops=1)
        assert scenario_hash(a) != scenario_hash(b)

    def test_generators_never_alias(self):
        """Same physical knobs through different generators hash apart."""
        registry = scenario_registry()
        a = registry.build("single", n_channels=6)
        b = registry.build("interfering", n_channels=6)
        assert scenario_hash(a) != scenario_hash(b)

    def test_checkpoint_rejects_different_base_config(self, tmp_path):
        path = tmp_path / "sweep.ckpt"
        SweepCheckpoint(path, parameter="n_channels", values=[4],
                        schemes=["heuristic1"], n_runs=1, seed=7,
                        config_hash="a" * 64)
        with pytest.raises(CheckpointError, match="different base config"):
            SweepCheckpoint(path, parameter="n_channels", values=[4],
                            schemes=["heuristic1"], n_runs=1, seed=7,
                            config_hash="b" * 64)

    def test_checkpoint_without_config_hash_resumes_tolerantly(
            self, tmp_path):
        """Headers from before the config field keep resuming."""
        path = tmp_path / "sweep.ckpt"
        SweepCheckpoint(path, parameter="n_channels", values=[4],
                        schemes=["heuristic1"], n_runs=1, seed=7)
        resumed = SweepCheckpoint(path, parameter="n_channels", values=[4],
                                  schemes=["heuristic1"], n_runs=1, seed=7,
                                  config_hash="a" * 64)
        assert len(resumed) == 0


class TestCapabilityFlags:
    def test_fallback_chain_orders_by_registration(self):
        primary = scheme_registry().create("heuristic2")
        chain = fallback_chain_for("heuristic2", primary)
        assert [name for name, _ in chain.allocators] == [
            "heuristic2", "heuristic1"]
        # A fallback-eligible primary is not appended to itself.
        h1 = scheme_registry().create("heuristic1")
        assert [name for name, _ in
                fallback_chain_for("heuristic1", h1).allocators] == [
            "heuristic1"]
