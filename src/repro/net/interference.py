"""Interference-graph construction (Definition 1, Figs. 2 and 5).

Vertices are FBSs; an edge joins two FBSs whose coverage areas overlap,
meaning they may not use the same licensed channel simultaneously
(Lemma 4).  The graph drives both the greedy channel allocation
(Table III) and the performance bounds (Theorem 2 uses its maximum
degree).

:class:`InterferenceGraph` is a small immutable adjacency type.  It
keeps the method names and iteration orders of the graph library the
program used before (``nodes``, ``edges``, ``neighbors``, ``degree``,
``has_edge``, ``in``, ``number_of_nodes``, ``number_of_edges``), which
``tests/net/test_graph_oracle.py`` holds it to, so results and config
hashes are unchanged.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Sequence, Set, Tuple, Union

from repro.net.nodes import FemtoBaseStation
from repro.utils.errors import ConfigurationError


class InterferenceGraph:
    """An immutable undirected simple graph over FBS ids.

    Node order is insertion order; each node's neighbours are in the
    order their edges were first given, and :attr:`edges` lists each
    edge once as ``(u, v)`` with ``u`` the earlier node.

    Raises
    ------
    ConfigurationError
        On a self-loop or an edge endpoint that is not a node.
    """

    __slots__ = ("_adj",)

    def __init__(self, nodes: Iterable[int] = (),
                 edges: Iterable[Tuple[int, int]] = ()) -> None:
        adj: Dict[int, Dict[int, None]] = {node: {} for node in nodes}
        for i, j in edges:
            if i == j:
                raise ConfigurationError(
                    f"self-interference edge ({i}, {j}) is invalid")
            if i not in adj or j not in adj:
                raise ConfigurationError(
                    f"edge ({i}, {j}) references an FBS not in {sorted(adj)}")
            adj[i][j] = None
            adj[j][i] = None
        self._adj = adj

    @property
    def nodes(self) -> Tuple[int, ...]:
        """The vertices, in insertion order."""
        return tuple(self._adj)

    @property
    def edges(self) -> List[Tuple[int, int]]:
        """Each edge once, as ``(earlier node, later node)``."""
        seen: Set[int] = set()
        edges = []
        for node, nbrs in self._adj.items():
            edges.extend((node, nbr) for nbr in nbrs if nbr not in seen)
            seen.add(node)
        return edges

    def __contains__(self, node: object) -> bool:
        return node in self._adj

    def _nbrs(self, node: int) -> Dict[int, None]:
        try:
            return self._adj[node]
        except KeyError:
            raise ConfigurationError(
                f"FBS {node} is not a vertex of the graph") from None

    def neighbors(self, node: int) -> Iterator[int]:
        """The neighbours of ``node``, in edge order."""
        return iter(self._nbrs(node))

    def degree(self, node: Union[int, None] = None):
        """``degree(n)`` is the degree of ``n``; ``degree()`` lists
        ``(node, degree)`` pairs in node order."""
        if node is None:
            return [(n, len(nbrs)) for n, nbrs in self._adj.items()]
        return len(self._nbrs(node))

    def has_edge(self, u: int, v: int) -> bool:
        """Whether ``u`` and ``v`` interfere."""
        nbrs = self._adj.get(u)
        return nbrs is not None and v in nbrs

    def number_of_nodes(self) -> int:
        return len(self._adj)

    def number_of_edges(self) -> int:
        return sum(len(nbrs) for nbrs in self._adj.values()) // 2

    def __repr__(self) -> str:
        return (f"InterferenceGraph(nodes={len(self._adj)}, "
                f"edges={self.number_of_edges()})")


def build_interference_graph(
        fbss: Sequence[FemtoBaseStation]) -> InterferenceGraph:
    """Build the interference graph from FBS coverage geometry.

    Nodes are ``fbs_id`` values; an edge ``(i, j)`` exists iff the coverage
    disks of FBS ``i`` and FBS ``j`` overlap.
    """
    ids = [fbs.fbs_id for fbs in fbss]
    if len(set(ids)) != len(ids):
        raise ConfigurationError(f"duplicate fbs_id values in {ids}")
    edges = [(fbs_a.fbs_id, fbs_b.fbs_id)
             for a_index, fbs_a in enumerate(fbss)
             for fbs_b in fbss[a_index + 1:] if fbs_a.overlaps(fbs_b)]
    return InterferenceGraph(ids, edges)


def interference_graph_from_edges(
        fbs_ids: Iterable[int],
        edges: Iterable[Tuple[int, int]]) -> InterferenceGraph:
    """Build an interference graph directly from an edge list.

    Used to reproduce the paper's stated topologies exactly: Fig. 2 (four
    FBSs, single edge 3-4) and Fig. 5 (chain 1-2-3).
    """
    return InterferenceGraph(fbs_ids, edges)


def neighbors(graph: InterferenceGraph, fbs_id: int) -> Set[int]:
    """The neighbour set ``R(i)`` of Lemma 4."""
    if fbs_id not in graph:
        raise ConfigurationError(f"FBS {fbs_id} is not a vertex of the graph")
    return set(graph.neighbors(fbs_id))


def max_degree(graph: InterferenceGraph) -> int:
    """``D_max`` -- the maximum node degree, used by Theorem 2.

    Zero for an empty or edgeless graph (the non-interfering case, where
    the greedy algorithm is optimal).
    """
    if graph.number_of_nodes() == 0:
        return 0
    return max(degree for _node, degree in graph.degree())
