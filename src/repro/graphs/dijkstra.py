"""Dijkstra shortest-path trees over the circuit graph (Table 3, STEP 3.2).

``Saturate_Network`` repeatedly asks for the shortest-path tree from a
random source to **all reachable sinks**, with the congestion distance
``d(e)`` as edge length.  The tree edges are nets; a multi-pin net charges
its distance once per traversal (its branches share the physical wire).

:func:`dijkstra_tree` is the string-keyed reference: it reads distances
from a name-keyed mapping its caller owns, so it shares no state with
the indexed hot loop (:class:`~repro.flow.index.FlowIndex`) it checks.

Determinism matters for reproducibility: ties are broken by insertion
order via a monotonically increasing heap counter.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Set

from .digraph import CircuitGraph

__all__ = ["ShortestPathTree", "dijkstra_tree"]


@dataclass
class ShortestPathTree:
    """Result of :func:`dijkstra_tree`.

    Attributes:
        source: the tree root.
        dist: node → shortest distance from the source.
        parent_net: node → name of the net used to reach it (root maps to
            ``None``).
    """

    source: str
    dist: Dict[str, float]
    parent_net: Dict[str, Optional[str]]

    def reached(self) -> List[str]:
        """All nodes reachable from the source, including the source."""
        return list(self.dist)

    def tree_nets(self) -> List[str]:
        """Distinct nets participating in the tree (``e ∈ T_v`` of Table 3)."""
        seen: Set[str] = set()
        out: List[str] = []
        for net_name in self.parent_net.values():
            if net_name is not None and net_name not in seen:
                seen.add(net_name)
                out.append(net_name)
        return out


def dijkstra_tree(
    graph: CircuitGraph, source: str, net_dist: Mapping[str, float]
) -> ShortestPathTree:
    """Shortest-path tree from ``source`` over net distances ``d(e)``.

    Args:
        graph: the circuit graph (topology only).
        source: root node.
        net_dist: net name → distance ``d(e)``, for every net.

    Returns:
        A :class:`ShortestPathTree` covering every node reachable from
        ``source``.
    """
    dist: Dict[str, float] = {source: 0.0}
    parent_net: Dict[str, Optional[str]] = {source: None}
    done: Set[str] = set()
    counter = 0
    heap: List = [(0.0, counter, source)]
    while heap:
        d, _, node = heapq.heappop(heap)
        if node in done:
            continue
        done.add(node)
        for net in graph.out_nets(node):
            nd = d + net_dist[net.name]
            for sink in net.sinks:
                if sink in done:
                    continue
                if sink not in dist or nd < dist[sink]:
                    dist[sink] = nd
                    parent_net[sink] = net.name
                    counter += 1
                    heapq.heappush(heap, (nd, counter, sink))
    return ShortestPathTree(source=source, dist=dist, parent_net=parent_net)
