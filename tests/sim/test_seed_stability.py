"""Seed-stability regression: golden SlotRecord fingerprints.

A fixed seed must keep producing the same simulation trajectory across
refactors -- any change to how the engine consumes its RNG streams
(order, count, or batching of draws) silently changes *every* sampled
result, which no unit test notices.  This suite pins sha256
fingerprints of canonicalised SlotRecord streams for reference
scenarios -- the paper's deployments, both heuristics and the
graph-coloring scheme on the interfering chain and on a 4x4 city grid,
the A1/A2/A5 ablation modes and an injected sensing outage -- against
goldens committed in ``tests/data/``.

Each scenario carries two fingerprints.  The rounded one formats floats
to 12 significant digits: enough precision that any reordered or
dropped RNG draw (values differ in the leading digits) changes it,
while platform-level libm differences in the last bits do not.  The
exact one hashes ``float.hex`` renderings, so it also sees a 1-ulp
drift -- e.g. a fusion that adds the same log-likelihood steps in a
different order.

To regenerate after an *intentional* trajectory change::

    PYTHONPATH=src python -m tests.sim.test_seed_stability

and review the diff of ``tests/data/seed_stability.json`` like code.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.experiments.citygrid import city_grid_scenario
from repro.experiments.scenarios import (
    interfering_fbs_scenario,
    single_fbs_scenario,
)
from repro.sim.engine import SimulationEngine
from repro.testing.faults import FaultPlan

GOLDEN_PATH = Path(__file__).resolve().parents[1] / "data" / "seed_stability.json"

SCENARIOS = {
    "single_fbs": lambda: single_fbs_scenario(
        n_gops=1, n_channels=4, seed=20260806),
    "interfering_fbs": lambda: interfering_fbs_scenario(
        n_gops=1, n_channels=4, seed=20260806),
    "graph_coloring": lambda: interfering_fbs_scenario(
        n_gops=1, n_channels=4, seed=20260806, scheme="graph-coloring"),
    "city_grid": lambda: city_grid_scenario(
        rows=2, cols=2, users_per_fbs=2, n_channels=4, n_gops=1,
        seed=20260806),
    "city_grid_4x4_coloring": lambda: city_grid_scenario(
        rows=4, cols=4, users_per_fbs=3, n_channels=4, n_gops=1,
        seed=20260806, scheme="graph-coloring"),
    "heuristic1_interfering": lambda: interfering_fbs_scenario(
        n_gops=1, n_channels=4, seed=20260806, scheme="heuristic1"),
    "heuristic2_interfering": lambda: interfering_fbs_scenario(
        n_gops=1, n_channels=4, seed=20260806, scheme="heuristic2"),
    "a1_threshold": lambda: interfering_fbs_scenario(
        n_gops=1, n_channels=4, seed=20260806).replace(
            access_policy="threshold"),
    "a2_single_observation": lambda: single_fbs_scenario(
        n_gops=1, n_channels=6, seed=20260806).replace(
            single_observation_fusion=True),
    "a5_belief_tracking": lambda: interfering_fbs_scenario(
        n_gops=1, n_channels=5, seed=20260806).replace(
            belief_tracking=True),
    "sensing_outage": lambda: single_fbs_scenario(
        n_gops=1, n_channels=4, seed=20260806).replace(
            fault_plan=FaultPlan(sensing_outage_slots=frozenset({0, 3, 4, 9}),
                                 sensing_outage_channels=frozenset({1, 3}))),
}


def _f(value):
    """Canonical 12-significant-digit rendering of a float."""
    return float("%.12g" % float(value))


def _x(value):
    """Exact rendering of a float: every bit of it."""
    return float(value).hex()


def _canonical_record(record, render=_f):
    """The record as JSON-ready data, floats rendered by ``render``."""
    return {
        "slot": record.slot,
        "occupancy": [int(x) for x in record.occupancy],
        "posteriors": [render(x) for x in record.access.posteriors],
        "access_probabilities": [render(x) for x in
                                 record.access.access_probabilities],
        "decisions": [int(x) for x in record.access.decisions],
        "channel_allocation": {
            str(fbs): sorted(int(c) for c in channels)
            for fbs, channels in sorted(record.channel_allocation.items())
        },
        "expected_channels": {
            str(fbs): render(g)
            for fbs, g in sorted(record.problem.expected_channels.items())
        },
        "users": [
            {
                "user_id": user.user_id,
                "fbs_id": user.fbs_id,
                "w_prev": render(user.w_prev),
                "success_mbs": render(user.success_mbs),
                "success_fbs": render(user.success_fbs),
                "r_mbs": render(user.r_mbs),
                "r_fbs": render(user.r_fbs),
                "csi_mbs": None if user.csi_mbs is None else render(user.csi_mbs),
                "csi_fbs": None if user.csi_fbs is None else render(user.csi_fbs),
            }
            for user in record.problem.users
        ],
        "mbs_user_ids": sorted(record.allocation.mbs_user_ids),
        "rho_mbs": {str(j): render(r)
                    for j, r in sorted(record.allocation.rho_mbs.items())},
        "rho_fbs": {str(j): render(r)
                    for j, r in sorted(record.allocation.rho_fbs.items())},
        "increments": {str(j): render(v)
                       for j, v in sorted(record.increments.items())},
        "bound_gap": render(record.bound_gap),
    }


def _digest(records):
    payload = json.dumps(records, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


def compute_fingerprint(config, render=_f):
    """sha256 over the canonical JSON of the full SlotRecord stream."""
    engine = SimulationEngine(config)
    records = [_canonical_record(engine.step(), render)
               for _ in range(config.n_slots)]
    return _digest(records), records


def compute_exact_fingerprint(config):
    """:func:`compute_fingerprint` over ``float.hex`` renderings."""
    return compute_fingerprint(config, _x)[0]


def _load_goldens():
    with GOLDEN_PATH.open() as handle:
        return json.load(handle)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_fingerprint_matches_golden(name):
    goldens = _load_goldens()
    fingerprint, records = compute_fingerprint(SCENARIOS[name]())
    golden = goldens["fingerprints"][name]
    assert fingerprint == golden, (
        f"seed-stability fingerprint changed for scenario {name!r}: "
        f"{fingerprint} != golden {golden}. The engine's sampled "
        f"trajectory moved -- either an RNG-consumption regression, or an "
        f"intentional change that requires regenerating the goldens "
        f"(see this module's docstring). First slot now: "
        f"{json.dumps(records[0], sort_keys=True)[:400]}")


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_exact_fingerprint_matches_golden(name):
    """Bit-level twin of the rounded fingerprint: sees a 1-ulp drift."""
    goldens = _load_goldens()
    assert (compute_exact_fingerprint(SCENARIOS[name]())
            == goldens["exact_fingerprints"][name]), (
        f"exact fingerprint changed for scenario {name!r}: some float in "
        f"the SlotRecord stream moved, possibly only in its last bits")


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_first_slot_matches_golden(name):
    """A readable subset of the golden, so diffs localise the drift."""
    goldens = _load_goldens()
    _, records = compute_fingerprint(SCENARIOS[name]())
    assert records[0] == goldens["first_slots"][name]


def test_goldens_cover_exactly_the_scenarios():
    goldens = _load_goldens()
    assert sorted(goldens["fingerprints"]) == sorted(SCENARIOS)
    assert sorted(goldens["first_slots"]) == sorted(SCENARIOS)
    assert sorted(goldens["exact_fingerprints"]) == sorted(SCENARIOS)


def regenerate():
    """Rewrite the golden file from the current implementation."""
    fingerprints, first_slots, exact = {}, {}, {}
    for name, build in SCENARIOS.items():
        fingerprint, records = compute_fingerprint(build())
        fingerprints[name] = fingerprint
        first_slots[name] = records[0]
        exact[name] = compute_exact_fingerprint(build())
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    with GOLDEN_PATH.open("w") as handle:
        json.dump({"fingerprints": fingerprints, "first_slots": first_slots,
                   "exact_fingerprints": exact},
                  handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    regenerate()
