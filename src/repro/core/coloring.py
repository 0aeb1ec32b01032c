"""Graph-coloring allocation scheme (hierarchical decomposition).

Sadr & Adve's "Hierarchical Resource Allocation in Femtocell Networks
using Graph Algorithms" splits resource allocation into a cluster-level
graph problem and a per-cluster convex problem.  The registry entry here
follows that decomposition within this codebase's slot model:

1. **Cluster level** -- channels are reused across FBS clusters by
   colouring the interference graph (:func:`interference_coloring`);
   FBSs of one colour class are mutually non-adjacent and may share
   channels freely.  In interfering deployments the engine runs this
   phase for every scheme without the ``greedy_channels`` capability:
   it colours the static graph once per run and deals each slot's
   access set across the colour classes, so the allocator itself stays
   slot-local.
2. **Per-cluster level** -- users are assigned to MBS or FBS by the
   local channel-condition rule (the same rule heuristic1 uses), then
   the slot's airtime is split by *exact water-filling* over that fixed
   assignment (:func:`~repro.core.reference.solve_given_assignment`),
   which runs on the compiled, group-cached water-filling kernel.

The result sits strictly between heuristic1 (same assignment, equal
shares) and the proposed scheme (jointly optimal assignment + shares):
it inherits the cheap distributed assignment but recovers the optimal
time shares for it.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

import networkx as nx

from repro.core.heuristics import local_mbs_choice
from repro.core.problem import Allocation, SlotProblem
from repro.core.reference import solve_given_assignment
from repro.registry.schemes import SchemeInfo, register_scheme


def interference_coloring(graph: nx.Graph,
                          nodes: Optional[Iterable[int]] = None, *,
                          strategy: str = "largest_first") -> Dict[int, int]:
    """Greedy-colour (a subgraph of) an interference graph.

    Parameters
    ----------
    graph:
        Interference graph; vertices are FBS ids, edges mark mutual
        interference.
    nodes:
        Restrict colouring to this vertex subset (default: all).
    strategy:
        Ordering strategy for the greedy colouring.  The default
        ``largest_first`` guarantees at most ``max_degree + 1`` colours
        (greedy colouring never needs more than Δ+1 regardless of
        order; largest-first additionally matches the assignment the
        baseline channel partition has always produced).

    Returns
    -------
    dict
        ``{fbs_id: color index}``; adjacent vertices never share a
        colour, and colour indices are dense from 0.
    """
    target = graph if nodes is None else graph.subgraph(nodes)
    return nx.greedy_color(target, strategy=strategy)


class GraphColoringAllocator:
    """Fixed-assignment water-filling allocator (see module docstring).

    The cluster-level colouring happens in the engine's channel phase;
    this object handles the per-cluster subproblem: pick each user's
    serving station by local channel conditions, then solve the slot's
    time-share program exactly for that assignment.
    """

    name = "graph-coloring"

    def allocate(self, problem: SlotProblem) -> Allocation:
        """Assign users by the local rule, then water-fill exactly."""
        return solve_given_assignment(problem, local_mbs_choice(problem))


register_scheme(SchemeInfo(
    name="graph-coloring",
    factory=GraphColoringAllocator,
    description="Hierarchical scheme: colour the interference graph for "
                "cluster-level channel reuse, then exact water-filling "
                "per cluster (Sadr & Adve).",
))
