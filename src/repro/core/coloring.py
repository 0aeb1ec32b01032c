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

from repro.core.heuristics import local_mbs_choice
from repro.core.problem import Allocation, SlotProblem
from repro.core.reference import solve_given_assignment
from repro.net.interference import InterferenceGraph
from repro.registry.schemes import SchemeInfo, register_scheme


def interference_coloring(graph: InterferenceGraph,
                          nodes: Optional[Iterable[int]] = None) -> Dict[int, int]:
    """Greedy-colour (a subgraph of) an interference graph.

    A port of the largest-first greedy colouring the program used
    before (``greedy_color(strategy="largest_first")`` of the graph
    library ``tests/net/test_graph_oracle.py`` holds it to), visit
    order included: vertices are taken by degree within the coloured
    set, descending, ties in iteration order, and each takes the
    smallest colour its coloured neighbours do not use.  The iteration
    order is the one of that library's induced subgraph view: graph
    order, except when the subset holds fewer than half the graph's
    vertices, where the view iterates the Python ``set`` of their ids
    (so ``[64, 100, 3, 1]`` of a 21-vertex graph ties as
    ``[64, 1, 3, 100]``).

    Parameters
    ----------
    graph:
        Interference graph; vertices are FBS ids, edges mark mutual
        interference.
    nodes:
        Restrict colouring to this vertex subset (default: all); ids
        that are not vertices are ignored.

    Returns
    -------
    dict
        ``{fbs_id: color index}`` in visit order; adjacent vertices
        never share a colour, colour indices are dense from 0, and at
        most ``max_degree + 1`` colours are used.
    """
    if nodes is None:
        order = list(graph.nodes)
        degree = {node: graph.degree(node) for node in order}
    else:
        members = {node for node in nodes if node in graph}
        if 2 * len(members) < graph.number_of_nodes():
            order = list(members)
        else:
            order = [node for node in graph.nodes if node in members]
        degree = {node: sum(1 for nbr in graph.neighbors(node)
                            if nbr in members)
                  for node in order}
    order.sort(key=degree.__getitem__, reverse=True)
    colors: Dict[int, int] = {}
    for node in order:
        used = {colors[nbr] for nbr in graph.neighbors(node) if nbr in colors}
        color = 0
        while color in used:
            color += 1
        colors[node] = color
    return colors


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
