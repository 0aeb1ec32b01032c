"""Network topology: placement, association, and link budgets.

Combines the node layer with the PHY substrate to produce, for every CR
user, the two per-slot success probabilities the allocation problem needs:
``bar P^F_{0,j}`` (MBS -> user on the common channel) and
``bar P^F_{i,j}`` (associated FBS -> user on licensed channels), both from
eq. (8) with Rayleigh block fading and log-distance path loss.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.net.interference import InterferenceGraph, build_interference_graph
from repro.net.nodes import CrUser, FemtoBaseStation, MacroBaseStation, distance
from repro.phy.fading import RayleighFading
from repro.phy.pathloss import LogDistancePathLoss, db_to_linear, mean_sinr_db
from repro.utils.errors import ConfigurationError
from repro.utils.validation import check_positive


@dataclass(frozen=True)
class LinkBudget:
    """PHY parameters shared by all links of one tier.

    Attributes
    ----------
    pathloss:
        Path-loss model for the tier.
    noise_dbm:
        Thermal-noise floor.
    decode_threshold_db:
        SINR decoding threshold ``H`` in dB (eq. 8).
    """

    pathloss: LogDistancePathLoss
    noise_dbm: float = -100.0
    decode_threshold_db: float = 5.0


#: Outdoor macro tier: higher path-loss exponent, long links.  With the
#: default scenario geometry (femtocells ~250-350 m from the MBS) this
#: yields macro-link success probabilities around 0.75-0.85.
DEFAULT_MACRO_BUDGET = LinkBudget(
    pathloss=LogDistancePathLoss(exponent=3.5, reference_loss_db=37.0),
    decode_threshold_db=15.0)
#: Indoor femto tier: short links through one wall (extra 10 dB in the
#: reference loss), mild in-home exponent.  With users 6-15 m from their
#: FBS this yields femto-link success probabilities around 0.8-0.97 --
#: lossy enough that fading matters, as the paper's evaluation needs.
DEFAULT_FEMTO_BUDGET = LinkBudget(
    pathloss=LogDistancePathLoss(exponent=2.5, reference_loss_db=47.0),
    decode_threshold_db=15.0)


@dataclass
class Topology:
    """A fully resolved network: nodes, association, links, interference.

    Attributes
    ----------
    mbs:
        The macro base station.
    fbss:
        Femto base stations, keyed position in the list is arbitrary; use
        ``fbs_id`` for identity.
    users:
        CR users with their ``fbs_id`` association resolved.
    interference_graph:
        Graph over ``fbs_id`` values (Definition 1).
    mbs_success:
        ``{user_id: bar P^F_{0,j}}`` -- per-slot success probability of the
        MBS link to each user.
    fbs_success:
        ``{user_id: bar P^F_{i,j}}`` -- success probability from the user's
        associated FBS.
    mbs_margin, fbs_margin:
        ``{user_id: mean SINR / H}`` (linear) -- the mean decoding margin
        of each link.  Under Rayleigh fading the realised margin is
        exponential with this mean, the link decodes iff it exceeds 1,
        and ``success = exp(-1 / margin)``; the simulation engine draws
        per-slot margin realisations from these.
    """

    mbs: MacroBaseStation
    fbss: List[FemtoBaseStation]
    users: List[CrUser]
    interference_graph: InterferenceGraph
    mbs_success: Dict[int, float] = field(default_factory=dict)
    fbs_success: Dict[int, float] = field(default_factory=dict)
    mbs_margin: Dict[int, float] = field(default_factory=dict)
    fbs_margin: Dict[int, float] = field(default_factory=dict)

    @property
    def n_fbss(self) -> int:
        """Number of femto base stations ``N``."""
        return len(self.fbss)

    @property
    def n_users(self) -> int:
        """Number of CR users ``K``."""
        return len(self.users)

    def fbs_by_id(self, fbs_id: int) -> FemtoBaseStation:
        """Look up an FBS by its identifier."""
        for fbs in self.fbss:
            if fbs.fbs_id == fbs_id:
                return fbs
        raise ConfigurationError(f"no FBS with id {fbs_id}")

    def users_of_fbs(self, fbs_id: int) -> List[CrUser]:
        """The set ``U_i`` of users associated with FBS ``fbs_id``."""
        return [user for user in self.users if user.fbs_id == fbs_id]


def associate_nearest(users: Sequence[CrUser],
                      fbss: Sequence[FemtoBaseStation]) -> List[CrUser]:
    """Associate each user with its nearest FBS (Section IV-B).

    Returns new :class:`CrUser` instances with ``fbs_id`` filled in; users
    already carrying an explicit association are left unchanged.
    """
    if not fbss:
        raise ConfigurationError("at least one FBS is required for association")
    resolved = []
    for user in users:
        if user.fbs_id is not None:
            resolved.append(user)
            continue
        nearest = min(fbss, key=lambda fbs: distance(fbs.position, user.position))
        resolved.append(CrUser(
            user_id=user.user_id,
            position=user.position,
            sequence_name=user.sequence_name,
            fbs_id=nearest.fbs_id,
        ))
    return resolved


def link_margin(tx_power_dbm: float, link_distance_m: float,
                budget: LinkBudget) -> float:
    """Mean decoding margin ``E[X] / H`` (linear) of one link.

    Mean SINR comes from the log-distance model; dividing by the decoding
    threshold normalises the block-fading draw so the link decodes iff
    the realised margin exceeds 1.
    """
    link_distance_m = check_positive(link_distance_m, "link_distance_m")
    sinr_db = mean_sinr_db(tx_power_dbm, link_distance_m, budget.pathloss,
                           noise_dbm=budget.noise_dbm)
    return db_to_linear(sinr_db - budget.decode_threshold_db)


def link_success_probability(tx_power_dbm: float, link_distance_m: float,
                             budget: LinkBudget) -> float:
    """``bar P^F`` of one Rayleigh link from the tier's link budget.

    Mean SINR comes from the log-distance model; the Rayleigh CDF at the
    decoding threshold gives the loss probability of eq. (8).
    """
    margin = link_margin(tx_power_dbm, link_distance_m, budget)
    fading = RayleighFading(mean_sinr=margin)
    return 1.0 - fading.cdf(1.0)


def build_topology(mbs: MacroBaseStation, fbss: Sequence[FemtoBaseStation],
                   users: Sequence[CrUser], *,
                   macro_budget: LinkBudget = DEFAULT_MACRO_BUDGET,
                   femto_budget: LinkBudget = DEFAULT_FEMTO_BUDGET,
                   interference_graph: Optional[InterferenceGraph] = None) -> Topology:
    """Resolve association, link budgets, and the interference graph.

    Parameters
    ----------
    mbs, fbss, users:
        The nodes.  Users without an explicit ``fbs_id`` are associated
        with their nearest FBS.
    macro_budget, femto_budget:
        Per-tier PHY parameters.
    interference_graph:
        Explicit graph (to reproduce the paper's stated topologies); built
        from coverage-disk overlap when omitted.

    Raises
    ------
    ConfigurationError
        On duplicate ids, unknown associations, or empty node sets.
    """
    if not users:
        raise ConfigurationError("at least one CR user is required")
    user_ids = [user.user_id for user in users]
    if len(set(user_ids)) != len(user_ids):
        raise ConfigurationError(f"duplicate user_id values in {user_ids}")
    resolved = associate_nearest(users, fbss)
    fbs_ids = {fbs.fbs_id for fbs in fbss}
    for user in resolved:
        if user.fbs_id not in fbs_ids:
            raise ConfigurationError(
                f"user {user.user_id} is associated with unknown FBS {user.fbs_id}")
    graph = interference_graph if interference_graph is not None else (
        build_interference_graph(list(fbss)))
    topology = Topology(
        mbs=mbs, fbss=list(fbss), users=resolved, interference_graph=graph)
    # The first FBS of each id, as ``Topology.fbs_by_id`` finds it.
    fbs_of: Dict[int, FemtoBaseStation] = {}
    for fbs in fbss:
        fbs_of.setdefault(fbs.fbs_id, fbs)
    for user in resolved:
        mbs_distance = distance(mbs.position, user.position)
        topology.mbs_margin[user.user_id] = link_margin(
            mbs.tx_power_dbm, mbs_distance, macro_budget)
        topology.mbs_success[user.user_id] = math.exp(
            -1.0 / topology.mbs_margin[user.user_id])
        fbs = fbs_of[user.fbs_id]
        fbs_distance = distance(fbs.position, user.position)
        topology.fbs_margin[user.user_id] = link_margin(
            fbs.tx_power_dbm, fbs_distance, femto_budget)
        topology.fbs_success[user.user_id] = math.exp(
            -1.0 / topology.fbs_margin[user.user_id])
    return topology
