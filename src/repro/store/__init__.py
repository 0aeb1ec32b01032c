"""Configuration hashing and managed workspaces.

Two layers (DESIGN.md §14):

* :mod:`repro.store.confighash` -- deterministic content hashing of
  scenario configurations (canonical JSON, stable float representation,
  numpy coercion, order independence), used for result provenance and
  checkpoint identity;
* :mod:`repro.store.workspace` -- :class:`FileWorkspace`, the managed
  on-disk layout (results/, checkpoints/, traces/, manifests/, jobs/)
  with an atomic JSON run index and garbage collection of stale runs.

:func:`build_scenario` and :class:`BuiltScenario` are re-exported from
:mod:`repro.sim.build`, where every engine derives its per-scenario
invariants.
"""

from repro.sim.build import BuiltScenario, build_scenario
from repro.store.confighash import (
    canonical_json,
    canonical_value,
    config_hash,
    hash_value,
    scenario_hash,
)
from repro.store.workspace import ACTIVE_JOB_STATES, FileWorkspace

__all__ = [
    "ACTIVE_JOB_STATES",
    "BuiltScenario",
    "FileWorkspace",
    "build_scenario",
    "canonical_json",
    "canonical_value",
    "config_hash",
    "hash_value",
    "scenario_hash",
]
