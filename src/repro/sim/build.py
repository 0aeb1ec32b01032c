"""The build half of the build/run split: per-scenario invariants.

Every quantity the simulation engine derives from the *physical*
scenario alone -- per-link Rayleigh margin scales, stationary channel
utilisations, the per-user R-D demand constants, the FBS id grid -- is
independent of scheme, seed, replication index, and simulation horizon.

:func:`build_scenario` performs that derivation, validates the margin
scales once (the per-slot fading draw does not re-check them), and
packages the result as a :class:`BuiltScenario`; every
:class:`~repro.sim.engine.SimulationEngine` builds its own from its
config and treats it as read-only.  The round-robin sensing layout is
not built: user ``k`` (sorted-id order) senses channel
``(k + slot) % M``, a rule the engine applies per slot.  A build
costs about a millisecond even on the 20x20 city grid -- under 1% of one
replication -- so it is not cached (DESIGN.md §14 has the measurement).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from repro.sim.config import ScenarioConfig
from repro.utils.errors import ConfigurationError
from repro.video.sequences import rd_slot_increment


@dataclass
class BuiltScenario:
    """Read-only per-scenario invariants, identical for every run of it.

    Attributes
    ----------
    csi_user_ids:
        User ids in topology order; the fading stream is consumed in
        this interleaved ``(mbs_0, fbs_0, mbs_1, fbs_1, ...)`` order.
    csi_scales:
        Interleaved mean decoding margins matching ``csi_user_ids``,
        all positive.
    etas:
        Per-channel stationary utilisations ``eta_m`` -- the fusion
        priors of eq. (2).
    fbs_ids:
        Sorted FBS ids present in the demand grid.
    interfering:
        Whether the interference graph has any edge (selects the
        channel-allocation path).
    demands_static:
        ``{user_id: static demand fields}`` in topology user order --
        association, link success probabilities, and the per-slot R-D
        increment constants ``R = beta * B / T`` for both tiers.
    """

    csi_user_ids: List[int] = field(default_factory=list)
    csi_scales: np.ndarray = field(default_factory=lambda: np.empty(0))
    etas: np.ndarray = field(default_factory=lambda: np.empty(0))
    fbs_ids: List[int] = field(default_factory=list)
    interfering: bool = False
    demands_static: Dict[int, dict] = field(default_factory=dict)


def build_scenario(config: ScenarioConfig) -> BuiltScenario:
    """Derive every per-scenario invariant the engine needs.

    Pure function of the config's topology and physical parameters
    (:data:`~repro.store.confighash.SCENARIO_BUILD_FIELDS`); scheme,
    seed, horizon, and ablation switches never enter, which is what
    lets one artifact serve a whole sweep grid.
    """
    topology = config.topology
    csi_user_ids = [user.user_id for user in topology.users]
    csi_scales = np.empty(2 * len(csi_user_ids))
    csi_scales[0::2] = [topology.mbs_margin[u] for u in csi_user_ids]
    csi_scales[1::2] = [topology.fbs_margin[u] for u in csi_user_ids]
    if csi_scales.size and not np.all(csi_scales > 0.0):
        raise ConfigurationError(
            f"mean margins must be positive, got min {csi_scales.min()!r}")

    # Per-channel stationary utilisation; identical channels in the
    # paper's evaluation, but kept as an array to match the batched
    # fusion's consumption (and the Spectrum's per-channel shape).
    # Scenarios with heterogeneous occupancy supply the utilisations
    # directly (and the Spectrum derives each channel's p01 from them).
    if config.channel_utilizations is not None:
        etas = np.asarray(config.channel_utilizations, dtype=np.float64)
    else:
        eta = config.p01 / (config.p01 + config.p10)
        etas = np.full(config.n_channels, eta, dtype=np.float64)

    demands_static: Dict[int, dict] = {}
    for user in topology.users:
        demands_static[user.user_id] = {
            "fbs_id": user.fbs_id,
            "success_mbs": topology.mbs_success[user.user_id],
            "success_fbs": topology.fbs_success[user.user_id],
            "r_mbs": rd_slot_increment(
                user.sequence_name, config.common_bandwidth_mbps,
                config.deadline_slots),
            "r_fbs": rd_slot_increment(
                user.sequence_name, config.licensed_bandwidth_mbps,
                config.deadline_slots),
        }

    return BuiltScenario(
        csi_user_ids=csi_user_ids,
        csi_scales=csi_scales,
        etas=etas,
        fbs_ids=sorted({static["fbs_id"]
                        for static in demands_static.values()}),
        interfering=topology.interference_graph.number_of_edges() > 0,
        demands_static=demands_static,
    )
