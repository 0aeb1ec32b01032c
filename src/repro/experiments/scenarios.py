"""The paper's two evaluation scenarios (Section V).

Scenario 1 (Section V-A): ``M = 8`` licensed channels with
``P01 = 0.4, P10 = 0.3``, collision cap ``gamma = 0.2``, one FBS serving
three CR users streaming the CIF sequences *Bus*, *Mobile*, and *Harbor*
(GOP 16), delivery deadline ``T = 10``, sensing errors
``epsilon = delta = 0.3``.

Scenario 2 (Section V-B): three FBSs, three users each (each FBS streams
the same three sequences), interference graph the chain 1 - 2 - 3 of
Fig. 5.

The paper does not publish its geometry; we place the femtocells
250-340 m from the MBS with users 6-15 m from their FBS, which yields
macro-link success probabilities around 0.55-0.85 and femto links around
0.88-0.99 -- the regime the paper's Introduction motivates (femtocells
bring high-SINR short links; the macro tier is reliable-ish but
bandwidth-limited), with enough loss on both tiers that the success
probabilities in problem (12) actually matter.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.net.interference import interference_graph_from_edges
from repro.net.nodes import CrUser, FemtoBaseStation, MacroBaseStation
from repro.net.topology import build_topology
from repro.sim.config import ScenarioConfig
from repro.utils.errors import ConfigurationError

#: The three sequences of Section V, in the paper's user order.
PAPER_SEQUENCES = ("bus", "mobile", "harbor")

#: Offsets (metres) of the three users around their FBS; within every
#: cell users sit at slightly different distances so link conditions are
#: heterogeneous, as multiuser-diversity comparisons require.
_USER_OFFSETS = ((6.0, 0.0), (0.0, 10.0), (-13.0, -7.0))


def single_fbs_scenario(*, n_channels: int = 8, p01: float = 0.4, p10: float = 0.3,
                        gamma: float = 0.2, false_alarm: float = 0.3,
                        miss_detection: float = 0.3, deadline_slots: int = 10,
                        common_bandwidth_mbps: float = 0.3,
                        licensed_bandwidth_mbps: float = 0.3,
                        n_gops: int = 3, scheme: str = "proposed",
                        seed: Optional[int] = 7) -> ScenarioConfig:
    """Scenario 1: a single FBS and three CR users (Section V-A)."""
    mbs = MacroBaseStation(position=(0.0, 0.0))
    fbs = FemtoBaseStation(fbs_id=1, position=(280.0, 0.0))
    users = _place_users(fbs_positions=[(280.0, 0.0)], users_per_fbs=3)
    topology = build_topology(mbs, [fbs], users)
    return ScenarioConfig(
        topology=topology, scheme=scheme, n_channels=n_channels, p01=p01,
        p10=p10, gamma=gamma, common_bandwidth_mbps=common_bandwidth_mbps,
        licensed_bandwidth_mbps=licensed_bandwidth_mbps,
        false_alarm=false_alarm, miss_detection=miss_detection,
        deadline_slots=deadline_slots, n_gops=n_gops, seed=seed,
    )


def interfering_fbs_scenario(*, n_channels: int = 8, p01: float = 0.4,
                             p10: float = 0.3, gamma: float = 0.2,
                             false_alarm: float = 0.3, miss_detection: float = 0.3,
                             deadline_slots: int = 10,
                             common_bandwidth_mbps: float = 0.3,
                             licensed_bandwidth_mbps: float = 0.3,
                             n_gops: int = 3, scheme: str = "proposed",
                             seed: Optional[int] = 7) -> ScenarioConfig:
    """Scenario 2: three FBSs in the Fig. 5 chain, three users each."""
    mbs = MacroBaseStation(position=(0.0, 0.0))
    positions = [(250.0, 0.0), (295.0, 0.0), (340.0, 0.0)]
    fbss = [FemtoBaseStation(fbs_id=i + 1, position=positions[i])
            for i in range(3)]
    # Coverage radius 30 m: disks of FBS 1-2 and 2-3 overlap (45 m apart),
    # 1-3 do not (90 m apart) -- exactly the Fig. 5 chain.  The explicit
    # edge list pins the topology against geometry drift.
    graph = interference_graph_from_edges([1, 2, 3], [(1, 2), (2, 3)])
    users = _place_users(fbs_positions=positions, users_per_fbs=3)
    topology = build_topology(mbs, fbss, users, interference_graph=graph)
    return ScenarioConfig(
        topology=topology, scheme=scheme, n_channels=n_channels, p01=p01,
        p10=p10, gamma=gamma, common_bandwidth_mbps=common_bandwidth_mbps,
        licensed_bandwidth_mbps=licensed_bandwidth_mbps,
        false_alarm=false_alarm, miss_detection=miss_detection,
        deadline_slots=deadline_slots, n_gops=n_gops, seed=seed,
    )


def utilization_to_p01(eta: float, p10: float = 0.3) -> float:
    """``p01`` that achieves utilisation ``eta`` with the paper's ``p10``.

    Inverts eq. (1); the utilisation sweeps of Figs. 4(c) and 6(a) keep
    ``p10 = 0.3`` and move ``p01``.
    """
    if not 0.0 < eta < 1.0:
        raise ConfigurationError(f"eta must be in (0, 1), got {eta}")
    p01 = eta * p10 / (1.0 - eta)
    if p01 > 1.0:
        raise ConfigurationError(
            f"eta={eta} unreachable with p10={p10} (needs p01={p01:.3f} > 1)")
    return p01


def _place_users(fbs_positions: Sequence, users_per_fbs: int) -> List[CrUser]:
    """Users at fixed offsets around each FBS, streaming the paper's videos."""
    if users_per_fbs > len(_USER_OFFSETS):
        raise ConfigurationError(
            f"at most {len(_USER_OFFSETS)} users per FBS supported, "
            f"got {users_per_fbs}")
    users: List[CrUser] = []
    user_id = 0
    for fbs_index, (fx, fy) in enumerate(fbs_positions):
        for user_index in range(users_per_fbs):
            dx, dy = _USER_OFFSETS[user_index]
            users.append(CrUser(
                user_id=user_id,
                position=(fx + dx, fy + dy),
                sequence_name=PAPER_SEQUENCES[user_index % len(PAPER_SEQUENCES)],
                fbs_id=fbs_index + 1,
            ))
            user_id += 1
    return users

# -- registry entries -------------------------------------------------------
# Direct calls to the builders above keep working unchanged; building
# through the registry additionally stamps the generator's identity onto
# the config (see repro.registry.scenarios).
from repro.registry.scenarios import ScenarioInfo, register_scenario  # noqa: E402

register_scenario(ScenarioInfo(
    name="single",
    factory=single_fbs_scenario,
    description="Section V-A scenario 1: one FBS, three CR users, no "
                "interference.",
))
register_scenario(ScenarioInfo(
    name="interfering",
    factory=interfering_fbs_scenario,
    description="Section V-A scenario 2: three FBSs in the Fig. 5 "
                "interference chain, three users each.",
))
