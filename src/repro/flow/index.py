"""Prebuilt integer-indexed graph view for ``Saturate_Network``'s hot loop.

``Saturate_Network`` runs ``min_visit × |V|`` Dijkstra shortest-path
trees.  :func:`repro.graphs.dijkstra.dijkstra_tree` is a faithful but
string-keyed implementation: every run rebuilds ``dist``/``parent`` dicts
keyed by node *names* and chases ``Net`` attribute lookups per edge.  At
the s38xxx scale that dominates the compile.

:class:`FlowIndex` lays the graph's
:class:`~repro.graphs.csr.CompiledGraph` out **once** as per-node
adjacency rows of ``(net id, sink ids)`` pairs, and then answers every
subsequent Dijkstra/injection query on dense arrays.  It reads and
writes the compiled view's own per-net ``flow``/``dist`` lists, so the
congestion has one home.  Per-run state (tentative distance, tree
parent) lives in scratch arrays, and the settled/seen/tree-net flags are
the compiled view's epoch stamps, so repeated runs allocate nothing.

The traversal order, tie-breaking counter, and floating-point operations
replicate :func:`dijkstra_tree` exactly, and flow accumulation/distance
exponentiation replicate :func:`repro.flow.distance.inject_flow` exactly,
so a saturation driven through the index is **bit-identical** to one
driven through the reference implementations (``tests/flow/test_saturate.py``
asserts this tree by tree).
"""

from __future__ import annotations

import heapq
import math
import sys
from typing import List, Sequence, Tuple

from ..graphs.csr import CompiledGraph

__all__ = ["FlowIndex"]


class FlowIndex:
    """Reusable indexed adjacency for repeated Dijkstra runs.

    Build once per saturation, from a
    :class:`~repro.graphs.csr.CompiledGraph` whose flow state was just
    reset (:meth:`~repro.graphs.csr.CompiledGraph.reset_flow`); call
    :meth:`tree_nets_from` per source and :meth:`inject` per tree.  The
    trees read, and the injections write, the compiled view's ``dist``
    and ``flow`` lists directly.

    The index shares the compiled view's interning tables and CSR
    adjacency (both follow graph insertion order, so ids are
    interchangeable).
    """

    def __init__(self, compiled: CompiledGraph):
        self.cg = compiled
        # adjacency rows straight off the CSR arrays (same net order as
        # graph.out_nets: both follow graph insertion order)
        out_start = compiled.out_start
        out_net_ids = compiled.out_net_ids
        sink_start = compiled.sink_start
        sink_ids = compiled.sink_ids
        n = compiled.n_nodes
        #: per-node list of (net id, tuple of sink node ids).
        self.adj: List[List[Tuple[int, Tuple[int, ...]]]] = []
        for i in range(n):
            row = []
            for p in range(out_start[i], out_start[i + 1]):
                ni = out_net_ids[p]
                row.append(
                    (ni, tuple(sink_ids[sink_start[ni] : sink_start[ni + 1]]))
                )
            self.adj.append(row)
        # per-run scratch, valid where the run's epoch stamps say so
        self._tdist: List[float] = [0.0] * n
        self._parent: List[int] = [-1] * n

    # ------------------------------------------------------------------
    # hot path
    # ------------------------------------------------------------------
    def tree_nets_from(self, source: str) -> Tuple[List[int], int]:
        """Distinct net ids of the shortest-path tree rooted at ``source``.

        Returns ``(net_ids, n_relaxations)``; the net set is identical to
        ``dijkstra_tree(graph, source, net_dist).tree_nets()`` with
        ``net_dist`` holding the compiled view's distances by name.
        """
        cg = self.cg
        src = cg.node_id[source]
        run = cg.next_epoch()
        seen, done, tdist, parent = (
            cg.node_ep,
            cg.node_ep2,
            self._tdist,
            self._parent,
        )
        adj, ndist = self.adj, cg.dist
        heappush, heappop = heapq.heappush, heapq.heappop
        seen[src] = run
        tdist[src] = 0.0
        parent[src] = -1
        counter = 0
        relaxations = 0
        heap: List[Tuple[float, int, int]] = [(0.0, 0, src)]
        settled: List[int] = []
        settle = settled.append
        while heap:
            d, _, node = heappop(heap)
            if done[node] == run:
                continue
            done[node] = run
            settle(node)
            for net_i, sinks in adj[node]:
                nd = d + ndist[net_i]
                for sink in sinks:
                    if done[sink] == run:
                        continue
                    if seen[sink] != run or nd < tdist[sink]:
                        seen[sink] = run
                        tdist[sink] = nd
                        parent[sink] = net_i
                        relaxations += 1
                        counter += 1
                        heappush(heap, (nd, counter, sink))
        net_seen = cg.net_ep
        tree: List[int] = []
        for node in settled:
            net_i = parent[node]
            if net_i >= 0 and net_seen[net_i] != run:
                net_seen[net_i] = run
                tree.append(net_i)
        return tree, relaxations

    def inject(
        self,
        net_indices: Sequence[int],
        delta: float,
        alpha: float,
        cap: float,
    ) -> None:
        """Add ``Δ`` of flow to each net and refresh its distance.

        Float-for-float identical to calling
        :func:`repro.flow.distance.inject_flow` on each net, including
        :func:`~repro.flow.distance.exp_distance`'s overflow rule,
        applied inline here because this is the saturation's hot loop.
        """
        flow, dist = self.cg.flow, self.cg.dist
        exp = math.exp
        for i in net_indices:
            f = flow[i] + delta
            flow[i] = f
            try:
                dist[i] = exp(alpha * f / cap)
            except OverflowError:
                dist[i] = sys.float_info.max

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<FlowIndex {self.cg.graph.name!r}: {self.cg.n_nodes} nodes, "
            f"{self.cg.n_nets} nets>"
        )
