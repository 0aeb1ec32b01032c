"""Pluggable scheme and scenario registries.

The simulation stack used to hard-code its extension points: the scheme
tuple lived in :mod:`repro.core.allocator`, the engine's allocator
dispatch was an ``if/elif`` chain, the lockstep batcher kept its own
scheme list, and scenario construction was welded into the experiment
modules.  This package converts those four dispatch points into one
seam:

* :mod:`repro.registry.schemes` -- ``SchemeRegistry`` maps a scheme
  name to an allocator factory plus capability flags (batchable,
  warm-startable, fallback-eligible, greedy-channels) that the engine,
  fallback chain, and lockstep driver consult instead of name lists.
* :mod:`repro.registry.scenarios` -- ``ScenarioRegistry`` maps a
  scenario name to a topology/workload generator; building through the
  registry stamps the generator's identity (name + build parameters)
  onto the config, where it flows into ``config_hash`` /
  ``scenario_hash`` and hence provenance manifests and checkpoints.

Built-in entries self-register at import time; the registries load them
lazily on first lookup, so importing this package stays cheap and free
of import cycles.
"""

from repro.registry.scenarios import (
    ScenarioInfo,
    ScenarioRegistry,
    register_scenario,
    scenario_registry,
)
from repro.registry.schemes import (
    SchemeInfo,
    SchemeRegistry,
    register_scheme,
    scheme_registry,
)

__all__ = [
    "ScenarioInfo",
    "ScenarioRegistry",
    "SchemeInfo",
    "SchemeRegistry",
    "register_scenario",
    "register_scheme",
    "scenario_registry",
    "scheme_registry",
]
