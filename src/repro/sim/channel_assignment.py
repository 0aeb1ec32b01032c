"""Baseline channel assignment for the heuristic schemes.

The paper's heuristics define how *time* is shared but not how licensed
channels are split among interfering FBSs -- in the non-interfering case
there is nothing to split (every FBS uses all available channels).  For a
fair comparison in the interfering case we give the heuristics a sensible
conflict-free assignment that does not use the proposed objective:

1. Colour the interference graph (greedy colouring); FBSs of one colour
   class are mutually non-adjacent and may reuse channels freely.
2. Deal the available channels cyclically across colour classes, ordered
   by posterior so no class is systematically starved of good channels.

Every FBS in the class receiving channel ``m`` gets ``m`` -- maximal
spatial reuse without conflicts, and no dependence on the video state.

The interference graph never changes during a run, so step 1 is
:func:`colour_classes`, computed once per engine, and step 2 is
:func:`deal_channels`, run every slot.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Set

from repro.core.coloring import interference_coloring
from repro.net.interference import InterferenceGraph
from repro.utils.errors import ConfigurationError


def colour_classes(graph: InterferenceGraph,
                   fbs_ids: Sequence[int]) -> List[List[int]]:
    """The colour classes of ``fbs_ids`` in the interference graph.

    ``classes[c]`` lists the FBSs of colour ``c`` in the colouring's
    order (:func:`~repro.core.coloring.interference_coloring`,
    largest first); FBSs of one class are mutually non-adjacent.
    Empty when ``fbs_ids`` is.

    Raises
    ------
    ConfigurationError
        If an FBS id is not a vertex of ``graph``.
    """
    missing = [i for i in fbs_ids if i not in graph]
    if missing:
        raise ConfigurationError(
            f"FBS ids {missing} are not vertices of the interference graph")
    if not fbs_ids:
        return []
    coloring = interference_coloring(graph, fbs_ids)
    classes: List[List[int]] = [[] for _ in range(max(coloring.values()) + 1)]
    for fbs_id, color in coloring.items():
        classes[color].append(fbs_id)
    return classes


def deal_channels(classes: Sequence[Sequence[int]], fbs_ids: Sequence[int],
                  available_channels: Sequence[int],
                  posteriors: Dict[int, float]) -> Dict[int, Set[int]]:
    """Deal the ranked access set cyclically across colour classes.

    Parameters
    ----------
    classes:
        :func:`colour_classes` of ``fbs_ids``.
    fbs_ids:
        FBSs requiring channels.
    available_channels:
        The access set ``A(t)``.
    posteriors:
        ``{channel: P^A_m}``; channels are dealt best-first so the classes
        receive comparable quality.

    Returns
    -------
    dict
        ``{fbs_id: set of channels}``; adjacent FBSs never share one.
    """
    allocation: Dict[int, Set[int]] = {i: set() for i in fbs_ids}
    if not classes:
        return allocation
    n_colors = len(classes)
    ordered = sorted(available_channels,
                     key=lambda m: (-posteriors.get(m, 0.0), m))
    for position, channel in enumerate(ordered):
        for fbs_id in classes[position % n_colors]:
            allocation[fbs_id].add(channel)
    return allocation


def expected_channels_of(allocation: Dict[int, Set[int]],
                         posteriors: Dict[int, float]) -> Dict[int, float]:
    """``{fbs_id: G_i}`` implied by an assignment and the posteriors."""
    return {fbs_id: sum(posteriors[m] for m in channels)
            for fbs_id, channels in allocation.items()}
