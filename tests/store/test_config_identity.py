"""Pinned config identities: ``config_hash`` and ``scenario_hash`` hex.

Results files, checkpoint headers and the benchmark goldens all carry
``config_hash``, so a change to :class:`~repro.sim.config.ScenarioConfig`
(a field added, removed or renamed) or to the canonical form must not
leak into either hash unless it is meant to.  These literals were
recorded from the code and must only change with a deliberate identity
break, reviewed like a golden.
"""

from dataclasses import fields

import pytest

from repro.experiments.citygrid import city_grid_scenario
from repro.experiments.scenarios import (
    interfering_fbs_scenario,
    single_fbs_scenario,
)
from repro.registry.scenarios import scenario_registry
from repro.sim.config import ScenarioConfig
from repro.store.confighash import (
    RETIRED_CONFIG_FIELDS,
    config_hash,
    scenario_hash,
)
from repro.testing.faults import FaultPlan

CONFIGS = {
    "single_fbs": lambda: single_fbs_scenario(n_gops=1, seed=7),
    "interfering_proposed": lambda: interfering_fbs_scenario(
        n_gops=1, seed=7, scheme="proposed"),
    "interfering_coloring": lambda: interfering_fbs_scenario(
        n_gops=1, seed=7, scheme="graph-coloring"),
    "city_grid": lambda: city_grid_scenario(
        rows=2, cols=2, users_per_fbs=2, n_channels=4, n_gops=1, seed=7),
    "heterogeneous_eta": lambda: single_fbs_scenario(
        n_channels=4, n_gops=1, seed=7).replace(
            channel_utilizations=(0.2, 0.4, 0.5, 0.6)),
    "registry_built": lambda: scenario_registry().build(
        "interfering", n_channels=4, p01=0.35, n_gops=1, seed=7),
    "fault_plan": lambda: single_fbs_scenario(n_gops=1, seed=7).replace(
        fault_plan=FaultPlan(nonconvergent_slots={0})),
}

#: ``name: (config_hash, scenario_hash)``.
PINNED = {
    "single_fbs": (
        "ea2b54e016ff31ffa8ccfef8100b136a1e95015c083d2f1cfe73372197344dfc",
        "475f39d7258b4831c3bb09d242897d0276fa4a33f9b731c88b1f5d469654704d"),
    "interfering_proposed": (
        "125fd74e2f2d0935bcaef5d704cdd8479ca5783e4b065907c2445e342e79cf74",
        "ecd4fef4691bfbc73486a7092a996ed0f8137584b51cd515c1c15b013d204bd7"),
    "interfering_coloring": (
        "a5773d2f2c4348fa1320ea196c43319fa27f4ddf7e48675a322116f84b1102cf",
        "ecd4fef4691bfbc73486a7092a996ed0f8137584b51cd515c1c15b013d204bd7"),
    "city_grid": (
        "95a0804c9a77c75ecc6ea0e7f1a358a9a1ba598e57905701799a1cba9ee2cbe2",
        "ed51fb677f208fe583f6f7b5bc4fe4cf1814cc2a03c8b6b976e8b355d534d743"),
    "heterogeneous_eta": (
        "5667300362795a513ed8690e76141338301556d332e2486d5df4861bf9da7b8d",
        "9e888cc9d9d8c2a39e0c5fabd9664fecfcf758f0b121cf4c924497d994860dff"),
    "registry_built": (
        "45f5beeef1d3c5bee70006ea4a6603045be64cc7ae92ef203d80aa7e84a72ae8",
        "d5e6584e63401137aa42f787e661554fd3d8a88182c1295bcf973131ccd12041"),
    "fault_plan": (
        "4ee21b4330488497282bfc9ce2ae9010360e7a0550be05c932e5cdada03d1628",
        "475f39d7258b4831c3bb09d242897d0276fa4a33f9b731c88b1f5d469654704d"),
}

#: ``ScenarioConfig`` fields, in declaration order.
CONFIG_FIELDS = (
    "topology", "scheme", "n_channels", "p01", "p10", "gamma",
    "common_bandwidth_mbps", "licensed_bandwidth_mbps", "false_alarm",
    "miss_detection", "deadline_slots", "n_gops", "realized_throughput",
    "access_policy", "single_observation_fusion", "belief_tracking",
    "rd_variability", "rd_trace_phi", "nal_quantized", "nal_packet_bits",
    "seed", "fault_plan", "channel_utilizations", "generator",
    "generator_params",
)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_hashes_match_the_pins(name):
    config = CONFIGS[name]()
    assert (config_hash(config), scenario_hash(config)) == PINNED[name]


def test_hashed_field_names_are_pinned():
    # config_hash describes the live fields plus the retired switches at
    # the one value every config had; together they are the names the
    # pinned hashes were recorded over.
    assert tuple(f.name for f in fields(ScenarioConfig)) == CONFIG_FIELDS
    assert RETIRED_CONFIG_FIELDS == {"memoize_q": True, "warm_start": False}
    assert not set(RETIRED_CONFIG_FIELDS) & set(CONFIG_FIELDS)
