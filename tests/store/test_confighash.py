"""Stability and sensitivity of the deterministic config hashes.

Provenance, checkpoint fingerprints and solver-cache scopes key on
content identity, so these tests pin the two promises of :mod:`repro.store.confighash`: the same config hashes
identically everywhere (numpy or builtin scalars, any dict ordering,
any process), and any physical parameter change changes the hash.
"""

import subprocess
import sys
import textwrap

import numpy as np
import pytest

from repro.experiments.scenarios import _place_users, single_fbs_scenario
from repro.net.nodes import FemtoBaseStation, MacroBaseStation
from repro.net.topology import build_topology
from repro.store.confighash import (
    SCENARIO_BUILD_FIELDS,
    canonical_json,
    config_hash,
    hash_value,
    scenario_hash,
)


class TestCanonicalValues:
    def test_numpy_scalars_hash_like_builtins(self):
        assert hash_value(np.int64(8)) == hash_value(8)
        assert hash_value(np.int32(8)) == hash_value(8)
        assert hash_value(np.float64(0.35)) == hash_value(0.35)
        assert hash_value(np.bool_(True)) == hash_value(True)

    def test_numpy_array_is_dtype_and_shape_sensitive(self):
        floats = np.array([1.0, 2.0, 3.0])
        assert hash_value(floats) == hash_value(np.array([1.0, 2.0, 3.0]))
        assert hash_value(floats) != hash_value(floats.astype(np.float32))
        assert hash_value(floats) != hash_value(floats.reshape(3, 1))
        # An array is not its list twin: dtype/shape are part of identity.
        assert hash_value(floats) != hash_value([1.0, 2.0, 3.0])

    def test_dict_key_order_is_canonicalised_away(self):
        assert (hash_value({"a": 1, "b": 2, "c": 3})
                == hash_value({"c": 3, "b": 2, "a": 1}))
        # ...but key *type* stays significant.
        assert hash_value({1: "x"}) != hash_value({"1": "x"})

    def test_set_order_is_canonicalised_away(self):
        assert hash_value({3, 1, 2}) == hash_value({2, 3, 1})

    def test_negative_zero_distinct_from_zero(self):
        assert hash_value(-0.0) != hash_value(0.0)

    def test_subnormal_floats_are_exact(self):
        tiny = 5e-324  # smallest positive subnormal double
        assert hash_value(tiny) == hash_value(5e-324)
        assert hash_value(tiny) != hash_value(0.0)
        assert hash_value(tiny) != hash_value(2 * tiny)

    def test_float_canonical_form_is_hex(self):
        assert (0.1).hex() in canonical_json(0.1)

    def test_uncanonicalisable_value_raises(self):
        with pytest.raises(TypeError):
            hash_value(lambda: None)
        with pytest.raises(TypeError):
            hash_value(object())


class TestConfigHashes:
    def test_equal_configs_hash_equal(self):
        a = single_fbs_scenario(n_gops=1, seed=7)
        b = single_fbs_scenario(n_gops=1, seed=7)
        assert config_hash(a) == config_hash(b)
        assert scenario_hash(a) == scenario_hash(b)

    def test_every_build_field_changes_scenario_hash(self):
        base = single_fbs_scenario(n_gops=1, seed=7)
        reference = scenario_hash(base)
        changed = {
            "n_channels": base.n_channels + 2,
            "p01": base.p01 + 0.05,
            "p10": base.p10 + 0.05,
            "channel_utilizations": (0.5,) * base.n_channels,
            "common_bandwidth_mbps": base.common_bandwidth_mbps + 0.1,
            "licensed_bandwidth_mbps": base.licensed_bandwidth_mbps + 0.1,
            "deadline_slots": base.deadline_slots + 1,
            "generator": "single",
            "generator_params": (("n_channels", base.n_channels),),
        }
        assert set(changed) == set(SCENARIO_BUILD_FIELDS)
        for field, value in changed.items():
            variant = base.replace(**{field: value})
            assert scenario_hash(variant) != reference, field
            assert config_hash(variant) != config_hash(base), field

    def test_scheme_and_seed_share_the_scenario_hash(self):
        base = single_fbs_scenario(n_gops=1, seed=7)
        for variant in (base.with_scheme("heuristic1"), base.with_seed(99),
                        base.replace(n_gops=4)):
            assert scenario_hash(variant) == scenario_hash(base)
            assert config_hash(variant) != config_hash(base)

    def test_numpy_sweep_value_hashes_like_builtin(self):
        base = single_fbs_scenario(n_gops=1, seed=7)
        assert (scenario_hash(base.replace(n_channels=np.int64(10)))
                == scenario_hash(base.replace(n_channels=10)))
        assert (scenario_hash(base.replace(p01=np.float64(0.35)))
                == scenario_hash(base.replace(p01=0.35)))

    def test_moving_an_fbs_changes_both_hashes(self):
        # Same user and FBS counts, same (empty) interference graph: only
        # the geometry -- hence every link margin -- differs.
        base = single_fbs_scenario(n_gops=1, seed=7)
        mbs = MacroBaseStation(position=(0.0, 0.0))
        fbs = FemtoBaseStation(fbs_id=1, position=(400.0, 0.0))
        moved = base.replace(topology=build_topology(
            mbs, [fbs], _place_users([(400.0, 0.0)], users_per_fbs=3)))
        assert moved.topology.n_users == base.topology.n_users
        assert moved.topology.n_fbss == base.topology.n_fbss
        assert (sorted(moved.topology.interference_graph.edges)
                == sorted(base.topology.interference_graph.edges))
        assert config_hash(moved) != config_hash(base)
        assert scenario_hash(moved) != scenario_hash(base)

    def test_fault_plan_presence_only_affects_config_hash(self):
        base = single_fbs_scenario(n_gops=1, seed=7)
        with_plan = base.replace(fault_plan=object())
        # The plan object itself has no content identity; only its
        # presence is recorded, and the build identity ignores it.
        assert config_hash(with_plan) != config_hash(base)
        assert scenario_hash(with_plan) == scenario_hash(base)

    def test_hashes_are_stable_across_processes(self):
        parent_scenario = scenario_hash(single_fbs_scenario(n_gops=1, seed=7))
        parent_config = config_hash(single_fbs_scenario(n_gops=1, seed=7))
        script = textwrap.dedent("""
            from repro.experiments.scenarios import single_fbs_scenario
            from repro.store.confighash import config_hash, scenario_hash
            config = single_fbs_scenario(n_gops=1, seed=7)
            print(scenario_hash(config))
            print(config_hash(config))
        """)
        output = subprocess.run(
            [sys.executable, "-c", script], check=True, text=True,
            capture_output=True).stdout.split()
        assert output == [parent_scenario, parent_config]

    def test_memoized_on_the_config_instance(self):
        config = single_fbs_scenario(n_gops=1, seed=7)
        first = scenario_hash(config)
        assert getattr(config, "_repro_scenario_hash") == first
        assert scenario_hash(config) == first
