"""Compiled CSR view of a :class:`~repro.graphs.digraph.CircuitGraph`.

The partition and retiming kernels downstream of ``Saturate_Network``
(Tarjan SCC, the modified DFS of ``Make_Set``, ``Make_Group``'s boundary
selection, ``Assign_CBIT``'s merge-gain scoring) spend most of their time
chasing string-keyed dict lookups and rebuilding Python sets.
:class:`CompiledGraph` converts the graph **once** into dense
integer-indexed arrays:

* node and net names are *interned* to contiguous ids (``node_id`` /
  ``net_id``), in the graph's own insertion order — the same order
  :class:`~repro.flow.index.FlowIndex` uses, so the two layers share ids;
* out-/in-adjacency is stored CSR-style (one flat id array plus an
  offset array per node), as are per-net sink lists and the deduplicated
  successor lists that Tarjan traverses;
* per-node kinds and per-net "free boundary" flags live in bytearrays;
* ``Saturate_Network``'s per-net ``flow`` and congestion distance
  ``dist`` (``d(e)`` of Table 3) live here and nowhere else: saturation
  resets and fills them, and ``Make_Set``'s budget pin zeroes ``dist``;
* *epoch-stamped* scratch arrays (:meth:`next_epoch`) give kernels O(1)
  set-membership and visited flags without allocating a set per call.

A :class:`CompiledGraph` is built from the graph's *topology* (nodes,
nets, kinds), so one instance is built per graph and reused across every
kernel invocation of the compile that owns the graph.  Its flow state
and scratch arrays are mutable, so it is never shared between two
compiles.  :func:`compile_graph` caches the instance on the graph and
invalidates it when nodes or nets are added.
"""

from __future__ import annotations

from typing import Dict, List

from .digraph import CircuitGraph, Net, NodeKind

__all__ = ["KIND_INPUT", "KIND_REGISTER", "KIND_COMB", "CompiledGraph", "compile_graph"]

#: Integer codes stored in :attr:`CompiledGraph.kind` (one byte per node).
KIND_INPUT = 0
KIND_REGISTER = 1
KIND_COMB = 2

_KIND_CODE = {
    NodeKind.INPUT: KIND_INPUT,
    NodeKind.REGISTER: KIND_REGISTER,
    NodeKind.COMB: KIND_COMB,
}


class CompiledGraph:
    """Dense integer-id CSR snapshot of a circuit graph's topology.

    Attributes:
        node_names: id → node name (graph insertion order).
        node_id: node name → id.
        net_names: id → net name (graph insertion order, matching
            ``graph.nets()`` and :class:`~repro.flow.index.FlowIndex`).
        net_id: net name → id.
        kind: per-node kind code (``KIND_INPUT``/``KIND_REGISTER``/
            ``KIND_COMB``) as a bytearray.
        name_rank: per-node rank of its name in sorted order — sorting
            ids by ``name_rank`` reproduces ``sorted(names)`` exactly.
        net_src: per-net source node id.
        boundary_net: per-net flag — 1 when the source is a PI or DFF
            (a *permanent free boundary* in Make_Set terms).
        comb_src: per-net flag — 1 when the source is combinational.
        sink_start/sink_ids: CSR sink lists per net (fan-out branches in
            declaration order); ``fanout(i)`` is the sink count.
        out_start/out_net_ids: CSR net ids sourced at each node.
        in_start/in_net_ids: CSR net ids with a branch sinking at each
            node.
        succ_start/succ_ids: CSR deduplicated successor node ids, in the
            exact order ``CircuitGraph.successors`` yields them.
        flow: per-net accumulated flow of ``Saturate_Network``.
        dist: per-net congestion distance ``d(e)``; 0 once ``Make_Set``
            pins the net traversable.
    """

    def __init__(self, graph: CircuitGraph):
        self.graph = graph
        self.version = graph.topo_version
        self.node_names: List[str] = list(graph.nodes())
        self.node_id: Dict[str, int] = {
            name: i for i, name in enumerate(self.node_names)
        }
        n = len(self.node_names)
        self.kind = bytearray(n)
        for i, name in enumerate(self.node_names):
            self.kind[i] = _KIND_CODE[graph.kind(name)]
        self.name_rank: List[int] = [0] * n
        for rank, i in enumerate(
            sorted(range(n), key=self.node_names.__getitem__)
        ):
            self.name_rank[i] = rank

        nets: List[Net] = list(graph.nets())
        m = len(nets)
        self.net_names: List[str] = [net.name for net in nets]
        self.net_id: Dict[str, int] = {
            name: i for i, name in enumerate(self.net_names)
        }
        node_id = self.node_id
        self.net_src: List[int] = [node_id[net.source] for net in nets]
        self.boundary_net = bytearray(m)
        self.comb_src = bytearray(m)
        for i, net in enumerate(nets):
            if self.kind[self.net_src[i]] == KIND_COMB:
                self.comb_src[i] = 1
            else:
                self.boundary_net[i] = 1

        # per-net sinks, CSR
        self.sink_start: List[int] = [0] * (m + 1)
        sink_ids: List[int] = []
        for i, net in enumerate(nets):
            sink_ids.extend(node_id[s] for s in net.sinks)
            self.sink_start[i + 1] = len(sink_ids)
        self.sink_ids = sink_ids

        # per-node out-/in-net lists, CSR (graph insertion order)
        net_id = self.net_id
        self.out_start: List[int] = [0] * (n + 1)
        out_net_ids: List[int] = []
        self.in_start: List[int] = [0] * (n + 1)
        in_net_ids: List[int] = []
        for i, name in enumerate(self.node_names):
            out_net_ids.extend(
                net_id[net.name] for net in graph.out_nets(name)
            )
            self.out_start[i + 1] = len(out_net_ids)
            in_net_ids.extend(net_id[net.name] for net in graph.in_nets(name))
            self.in_start[i + 1] = len(in_net_ids)
        self.out_net_ids = out_net_ids
        self.in_net_ids = in_net_ids

        # deduplicated successors, CSR, replicating CircuitGraph.successors
        self.succ_start: List[int] = [0] * (n + 1)
        succ_ids: List[int] = []
        seen = [-1] * n
        for i in range(n):
            for p in range(self.out_start[i], self.out_start[i + 1]):
                net_i = out_net_ids[p]
                for q in range(self.sink_start[net_i], self.sink_start[net_i + 1]):
                    s = sink_ids[q]
                    if seen[s] != i:
                        seen[s] = i
                        succ_ids.append(s)
            self.succ_start[i + 1] = len(succ_ids)
        self.succ_ids = succ_ids

        # per-net flow state, pristine (Table 3, STEP 1)
        self.flow: List[float] = [0.0] * m
        self.dist: List[float] = [1.0] * m

        # epoch-stamped scratch (kernels call next_epoch per invocation)
        self._epoch = 0
        self.node_ep: List[int] = [0] * n
        self.node_ep2: List[int] = [0] * n
        self.net_ep: List[int] = [0] * m

    # ------------------------------------------------------------------
    @property
    def n_nodes(self) -> int:
        return len(self.node_names)

    @property
    def n_nets(self) -> int:
        return len(self.net_names)

    def fanout(self, net_i: int) -> int:
        """Sink count of net ``net_i``."""
        return self.sink_start[net_i + 1] - self.sink_start[net_i]

    def next_epoch(self) -> int:
        """Fresh stamp value for the shared epoch scratch arrays.

        Kernels stamp ``node_ep``/``node_ep2``/``net_ep`` entries with
        the returned value; a new epoch invalidates every old stamp in
        O(1), replacing per-call set rebuilds.
        """
        self._epoch += 1
        return self._epoch

    def reset_flow(self) -> None:
        """Set every net's flow to 0 and ``d(e)`` to 1 (Table 3, STEP 1)."""
        m = len(self.flow)
        self.flow[:] = [0.0] * m
        self.dist[:] = [1.0] * m

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<CompiledGraph {self.graph.name!r}: {self.n_nodes} nodes, "
            f"{self.n_nets} nets>"
        )


def compile_graph(graph: CircuitGraph) -> CompiledGraph:
    """The (cached) :class:`CompiledGraph` of ``graph``.

    Built on first use and stored on the graph instance; invalidated
    automatically when the graph's topology version changes (nodes or
    nets added).  The flow state the view carries never invalidates it,
    so ``saturate_network(graph)`` followed by ``make_group(graph, ...,
    presaturated=True)`` finds the saturated distances here.  A topology
    change, by the same rule, discards the saturation.
    """
    cached = getattr(graph, "_compiled", None)
    if cached is not None and cached.version == graph.topo_version:
        return cached
    compiled = CompiledGraph(graph)
    graph._compiled = compiled
    return compiled
