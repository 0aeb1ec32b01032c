"""Femtocell CR network model.

Geometry and node layer (Section III-A, Fig. 1): one macro base station
(MBS) whose single antenna is tuned to the common channel, ``N`` femto
base stations (FBS) with ``M`` sensing antennas each, and ``K`` CR users
with one software-radio transceiver each.  Users associate with their
nearest FBS; FBSs whose coverage disks overlap interfere and cannot reuse
the same licensed channel (Definition 1, the interference graph).
"""

from repro.net.interference import (
    InterferenceGraph,
    build_interference_graph,
    interference_graph_from_edges,
    max_degree,
)
from repro.net.nodes import CrUser, FemtoBaseStation, MacroBaseStation
from repro.net.topology import Topology, build_topology

__all__ = [
    "CrUser",
    "FemtoBaseStation",
    "InterferenceGraph",
    "MacroBaseStation",
    "Topology",
    "build_interference_graph",
    "build_topology",
    "interference_graph_from_edges",
    "max_degree",
]
