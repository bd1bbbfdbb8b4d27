"""``Make_Group`` (Table 4): congestion-ordered clustering under Eq. 5/6.

The procedure saturates the network, then repeatedly splits the cluster
with the largest input count by lowering the congestion boundary until
every cluster satisfies ``ι(ϖ) ≤ l_k``.

Efficiency note (documented in DESIGN.md): instead of popping the global
sorted distance stack one value at a time — most of which would not touch
the oversized cluster — each split jumps directly to the highest distance
still present among the cluster's uncut internal nets.  The net-removal
*order* (most congested first) is identical; only no-op boundary pops are
skipped.

The compiled path (default) keeps a lazy max-heap of candidate boundary
distances per cluster, built fused with the cluster's input-net scan on
the :class:`~repro.graphs.csr.CompiledGraph` arrays.  Heap entries are
validated on pop against the cut/forced flags — the only ways a
candidate can die, since distances are frozen after saturation except for
budget-exhaustion pinning — so the popped maximum equals the reference
full rescan (``_next_boundary``) exactly.  ``use_compiled=False`` runs
the original rescan + set-based ``Make_Set`` for equivalence tests and
benchmarks.
"""

from __future__ import annotations

import heapq

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from ..config import MercedConfig
from ..errors import InfeasiblePartitionError
from ..flow.saturate import SaturationResult, saturate_network
from ..graphs.csr import KIND_COMB, CompiledGraph, compile_graph
from ..graphs.digraph import CircuitGraph, NodeKind
from ..graphs.scc import SCCIndex
from ..perf import count as perf_count
from .clusters import Cluster, Partition
from .make_set import CutState, make_set, make_set_reference

__all__ = ["MakeGroupResult", "make_group"]


@dataclass
class MakeGroupResult:
    """Outcome of :func:`make_group`."""

    partition: Partition
    cut_state: CutState
    saturation: SaturationResult
    n_splits: int
    infeasible_clusters: List[Cluster]

    @property
    def feasible(self) -> bool:
        return not self.infeasible_clusters


def _next_boundary(
    graph: CircuitGraph, state: CutState, nodes: Set[str]
) -> Optional[float]:
    """Highest distance among the cluster's still-traversable comb nets."""
    dist, net_id = state.cg.dist, state.cg.net_id
    cut_b, forced_b = state.cut_b, state.forced_b
    best: Optional[float] = None
    for node in nodes:
        if graph.kind(node) is not NodeKind.COMB:
            continue
        for net in graph.out_nets(node):
            i = net_id[net.name]
            d = dist[i]
            if cut_b[i] or forced_b[i] or d <= 0.0:
                continue
            # only nets that DFS could actually cross inside this cluster
            if not any(s in nodes for s in net.sinks):
                continue
            if best is None or d > best:
                best = d
    return best


def _cluster_with_heap(
    cg: CompiledGraph, state: CutState, cluster_id: int, names: Set[str]
) -> Tuple[Cluster, List[Tuple[float, int]]]:
    """Build a cluster and its boundary-candidate heap in one pass.

    The input-net scan reproduces
    :func:`~repro.partition.clusters.cluster_input_nets` on ids; the heap
    holds ``(-dist, net_id)`` for every comb-sourced member net with at
    least one member sink that is still cut-eligible right now.  Sticky
    monotonicity of ``cut``/``forced`` (they only grow; distances only
    change by forcing to 0) makes pop-time validation sufficient.
    """
    node_id = cg.node_id
    kind = cg.kind
    net_src = cg.net_src
    in_start = cg.in_start
    in_net_ids = cg.in_net_ids
    out_start = cg.out_start
    out_net_ids = cg.out_net_ids
    sink_start = cg.sink_start
    sink_ids = cg.sink_ids
    node_ep = cg.node_ep
    net_ep = cg.net_ep
    cut_b = state.cut_b
    forced_b = state.forced_b
    dist = cg.dist

    ids = [node_id[n] for n in names]
    ep = cg.next_epoch()
    for i in ids:
        node_ep[i] = ep

    input_ids: List[int] = []
    heap: List[Tuple[float, int]] = []
    for i in ids:
        if kind[i] != KIND_COMB:
            continue
        for p in range(in_start[i], in_start[i + 1]):
            ni = in_net_ids[p]
            if net_ep[ni] == ep:
                continue  # already recorded as an input
            src = net_src[ni]
            if kind[src] != KIND_COMB or node_ep[src] != ep:
                net_ep[ni] = ep
                input_ids.append(ni)
        for p in range(out_start[i], out_start[i + 1]):
            ni = out_net_ids[p]
            if cut_b[ni] or forced_b[ni]:
                continue
            d = dist[ni]
            if d <= 0.0:
                continue
            for q in range(sink_start[ni], sink_start[ni + 1]):
                if node_ep[sink_ids[q]] == ep:
                    heap.append((-d, ni))
                    break
    heapq.heapify(heap)
    net_names = cg.net_names
    cluster = Cluster(
        cluster_id=cluster_id,
        nodes=frozenset(names),
        input_nets=frozenset(net_names[ni] for ni in input_ids),
    )
    return cluster, heap


def _heap_boundary(
    state: CutState, heap: List[Tuple[float, int]]
) -> Tuple[Optional[float], int]:
    """Pop dead candidates; return (max surviving distance, examined).

    The count covers every candidate looked at — stale entries popped
    plus the surviving peek — so the ``boundary_pops`` perf counter
    tracks boundary-query work (one per split at minimum) rather than
    staying at zero when no candidate happens to be stale.
    """
    cut_b = state.cut_b
    forced_b = state.forced_b
    pops = 0
    while heap:
        d, ni = heap[0]
        if cut_b[ni] or forced_b[ni]:
            heapq.heappop(heap)
            pops += 1
            continue
        return -d, pops + 1
    return None, pops


def make_group(
    graph: CircuitGraph,
    scc_index: Optional[SCCIndex] = None,
    config: Optional[MercedConfig] = None,
    presaturated: bool = False,
    strict: bool = True,
    use_compiled: bool = True,
) -> MakeGroupResult:
    """Partition ``graph`` into clusters with ``ι(ϖ) ≤ l_k``.

    Args:
        graph: the circuit graph.  Its compiled view
            (``compile_graph(graph)``) is mutated: saturation fills its
            flow state, and a budget exhaustion pins distances to 0.
        scc_index: precomputed SCC index; built here if omitted.
        config: Merced parameters (``l_k``, β, and the saturation knobs).
        presaturated: skip ``Saturate_Network`` and reuse the distances
            an earlier ``saturate_network(graph)`` left in the graph's
            compiled view (used by parameter-sweep ablations).
        strict: raise on clusters that cannot meet ``l_k`` (default);
            ``False`` returns them in ``infeasible_clusters`` instead —
            the paper's β-vs-testing-time trade-off means a tight β can
            legitimately force an oversized cluster (it then needs a
            longer-than-2^l_k test or a wider CBIT).
        use_compiled: run the compiled CSR kernels (default).  ``False``
            selects the original rescan/set-based path; the two are
            bit-identical (``tests/partition/test_kernel_equiv.py``).

    Returns:
        A :class:`MakeGroupResult`; ``result.partition.clusters`` is sorted
        from max ι to min (Table 4, STEP 6).

    Raises:
        InfeasiblePartitionError: a cluster cannot be reduced below
            ``l_k`` inputs (a cell's fan-in exceeds ``l_k``, or an SCC cut
            budget welded an oversized region together).
    """
    config = config or MercedConfig()
    scc_index = scc_index or SCCIndex(graph)
    if presaturated:
        saturation = SaturationResult(n_sources=0, visit={})
    else:
        saturation = saturate_network(graph, config)

    state = CutState(graph, scc_index, config.beta)
    cg = state.cg
    _make_set = make_set if use_compiled else make_set_reference
    members = [
        n for n in graph.nodes() if graph.kind(n) is not NodeKind.INPUT
    ]
    # First grouping cuts nothing (boundary above every distance): when the
    # register-bounded regions already satisfy Eq. 5 the minimal cut set is
    # empty.  Oversized clusters then walk down the distance stack, most
    # congested nets first (Table 4, STEPs 4-5).
    first_boundary = float("inf")
    groups = _make_set(graph, members, first_boundary, state)
    heaps: Dict[int, List[Tuple[float, int]]] = {}
    boundary_pops = 0
    if use_compiled:
        clusters = []
        for i, g in enumerate(groups):
            cl, heap = _cluster_with_heap(cg, state, i, g)
            heaps[i] = heap
            clusters.append(cl)
    else:
        clusters = [
            Cluster.from_nodes(i, graph, g) for i, g in enumerate(groups)
        ]

    n_splits = 0
    next_id = len(clusters)
    infeasible: List[Cluster] = []
    work = [c for c in clusters if c.input_count > config.lk]
    live = {c.cluster_id: c for c in clusters}
    while work:
        work.sort(key=lambda c: (c.input_count, c.cluster_id))
        big = work.pop()  # largest ι first
        if use_compiled:
            boundary, pops = _heap_boundary(state, heaps[big.cluster_id])
            boundary_pops += pops
        else:
            boundary = _next_boundary(graph, state, set(big.nodes))
        if boundary is None:
            infeasible.append(big)
            continue
        subgroups = _make_set(graph, big.nodes, boundary, state)
        n_splits += 1
        del live[big.cluster_id]
        heaps.pop(big.cluster_id, None)
        for g in subgroups:
            if use_compiled:
                cl, heap = _cluster_with_heap(cg, state, next_id, g)
                heaps[next_id] = heap
            else:
                cl = Cluster.from_nodes(next_id, graph, g)
            next_id += 1
            live[cl.cluster_id] = cl
            if cl.input_count > config.lk:
                work.append(cl)

    perf_count("boundary_pops", boundary_pops)
    final = sorted(
        live.values(), key=lambda c: (-c.input_count, c.cluster_id)
    )
    # re-number for stable downstream ids
    final = [
        Cluster(cluster_id=i, nodes=c.nodes, input_nets=c.input_nets)
        for i, c in enumerate(final)
    ]
    partition = Partition(graph, final, lk=config.lk, scc_index=scc_index)
    if infeasible and strict:
        worst = max(c.input_count for c in infeasible)
        raise InfeasiblePartitionError(
            f"{len(infeasible)} cluster(s) cannot meet l_k={config.lk} "
            f"(worst ι={worst}); raise l_k or β"
        )
    return MakeGroupResult(
        partition=partition,
        cut_state=state,
        saturation=saturation,
        n_splits=n_splits,
        infeasible_clusters=infeasible,
    )
