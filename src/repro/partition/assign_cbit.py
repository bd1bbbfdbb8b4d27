"""``Assign_CBIT`` — greedy cluster merging into CBIT-sized partitions.

Table 8 of the paper.  ``Make_Group`` tends to produce many clusters far
smaller than ``l_k``; since the per-bit CBIT cost σ_k falls with CBIT
length (Table 1), it pays to merge small clusters — especially ones that
*share input nets* or are joined by cut nets (merging un-cuts them) — until
each partition's input count approaches ``l_k``.

The gain of merging ϖ₁ and ϖ₂ is ``γ = l_k − ι(ϖ₁ + ϖ₂)`` (Eq. 7);
a merge is feasible iff ``γ ≥ 0``.  Ties on γ are broken by the number of
cut nets the merge removes (Table 8, STEP 3.2.1).

``ι`` of a merged pair is computed incrementally from the operand input
sets: a net stays an input unless its combinational source lands inside
the merged cluster (exact, no re-walk of the graph).  The compiled
scorer goes further and never materialises the merged set per candidate:
``ι(merged) = ι(a) + ι(b) − shared − a_int − b_int`` where *shared* nets
appear in both input sets and *a_int*/*b_int* are inputs of one operand
internalised by the other (their comb source lands inside it) — the
three categories are mutually exclusive, so the count is exact and
``cuts_removed = a_int + b_int``.  Only the winning merge builds its
input set (via :func:`merged_input_nets`).
"""

from __future__ import annotations

import heapq

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from ..graphs.csr import compile_graph
from ..graphs.digraph import CircuitGraph, NodeKind
from ..perf import count as perf_count
from .clusters import Cluster, Partition, cluster_input_nets

__all__ = [
    "MergeGain",
    "merged_input_nets",
    "merge_gain",
    "AssignCBITResult",
    "assign_cbit",
    "assign_cbit_reference",
]


def merged_input_nets(
    graph: CircuitGraph, a: Cluster, b: Cluster
) -> FrozenSet[str]:
    """Exact input-net set of ``a ∪ b`` from the operands' input sets."""
    inputs: Set[str] = set()
    for net_name in a.input_nets:
        src = graph.net(net_name).source
        if graph.kind(src) is not NodeKind.COMB or src not in b.nodes:
            inputs.add(net_name)
    for net_name in b.input_nets:
        src = graph.net(net_name).source
        if graph.kind(src) is not NodeKind.COMB or src not in a.nodes:
            inputs.add(net_name)
    return frozenset(inputs)


@dataclass(frozen=True)
class MergeGain:
    """Gain assessment of merging two clusters (Eq. 7 + tie-break)."""

    gain: int  # γ = l_k − ι(merged); feasible iff ≥ 0
    cuts_removed: int  # cut nets that become internal

    @property
    def feasible(self) -> bool:
        return self.gain >= 0

    def better_than(self, other: Optional["MergeGain"]) -> bool:
        if other is None:
            return True
        return (self.gain, self.cuts_removed) > (other.gain, other.cuts_removed)


def merge_gain(
    graph: CircuitGraph, lk: int, a: Cluster, b: Cluster
) -> MergeGain:
    """Evaluate merging ``a`` and ``b`` under input bound ``lk``."""
    merged = merged_input_nets(graph, a, b)
    # cut nets removed: inputs of one operand sourced inside the other
    cuts_removed = 0
    for net_name in a.input_nets:
        src = graph.net(net_name).source
        if graph.kind(src) is NodeKind.COMB and src in b.nodes:
            cuts_removed += 1
    for net_name in b.input_nets:
        src = graph.net(net_name).source
        if graph.kind(src) is NodeKind.COMB and src in a.nodes:
            cuts_removed += 1
    return MergeGain(gain=lk - len(merged), cuts_removed=cuts_removed)


@dataclass
class AssignCBITResult:
    """Outcome of :func:`assign_cbit` (the paper's ``P``, ``cost``, ``k``)."""

    partition: Partition
    cost_dff: float  # Σ = Σ p_k n_k (Eq. 4), in DFF equivalents
    n_partitions: int
    n_merges: int


def _union_input_count(
    graph: CircuitGraph, clusters: Sequence[Cluster]
) -> int:
    nodes: Set[str] = set()
    for c in clusters:
        nodes.update(c.nodes)
    return len(cluster_input_nets(graph, nodes))


class _WorkingSet:
    """Indexed pool of live clusters during the greedy merge.

    Maintains, per live cluster handle: the cluster itself plus its
    interned input-net and node id lists; a reverse map
    ``net id → handles reading it as an input``; and a ``node id → handle``
    owner array for cut-source lookups.  The candidate set for a merge
    with ``O`` is

    * clusters sharing an input net with ``O``,
    * clusters containing the combinational source of one of ``O``'s
      input nets (merging removes that cut),
    * clusters reading a net sourced inside ``O`` (ditto, other way),
    * a handful of minimum-ι clusters (the best *non-interacting*
      partner is exactly a minimum-ι cluster, so including them keeps the
      search exact while avoiding the O(m²) full scan).
    """

    def __init__(self, graph: CircuitGraph, clusters: Sequence[Cluster]):
        self.graph = graph
        self.cg = compile_graph(graph)
        self.by_handle: Dict[int, Cluster] = {}
        self.net_ids: Dict[int, List[int]] = {}  # handle -> input net ids
        self.node_ids: Dict[int, List[int]] = {}  # handle -> member node ids
        self.readers: Dict[int, Set[int]] = {}  # net id -> reader handles
        self.node_owner: List[int] = [-1] * self.cg.n_nodes
        self._heap: List[Tuple[int, int]] = []  # (ι, handle), lazy-deleted
        self._next = 0
        for c in clusters:
            self.add(c)

    def add(self, cluster: Cluster) -> int:
        h = self._next
        self._next += 1
        self.by_handle[h] = cluster
        cg = self.cg
        net_id = cg.net_id
        nids = [net_id[n] for n in cluster.input_nets]
        self.net_ids[h] = nids
        for ni in nids:
            self.readers.setdefault(ni, set()).add(h)
        node_id = cg.node_id
        ids = [node_id[n] for n in cluster.nodes]
        self.node_ids[h] = ids
        owner = self.node_owner
        for i in ids:
            owner[i] = h
        heapq.heappush(self._heap, (cluster.input_count, h))
        return h

    def remove(self, h: int) -> Cluster:
        cluster = self.by_handle.pop(h)
        for ni in self.net_ids.pop(h):
            hs = self.readers.get(ni)
            if hs is not None:
                hs.discard(h)
        owner = self.node_owner
        for i in self.node_ids.pop(h):
            if owner[i] == h:
                owner[i] = -1
        return cluster

    def pop_largest(self) -> Cluster:
        h = max(
            self.by_handle,
            key=lambda k: (self.by_handle[k].input_count, -k),
        )
        return self.remove(h)

    def smallest_handles(self, n: int) -> List[int]:
        out: List[int] = []
        keep: List[Tuple[int, int]] = []
        while self._heap and len(out) < n:
            iota, h = heapq.heappop(self._heap)
            c = self.by_handle.get(h)
            if c is None or c.input_count != iota:
                continue  # stale entry
            out.append(h)
            keep.append((iota, h))
        for item in keep:
            heapq.heappush(self._heap, item)
        return out

    def candidates_for(self, cluster: Cluster) -> List[int]:
        cg = self.cg
        net_id = cg.net_id
        net_src = cg.net_src
        comb_src = cg.comb_src
        out_start = cg.out_start
        out_net_ids = cg.out_net_ids
        readers = self.readers
        owner = self.node_owner
        cand: Set[int] = set()
        for name in cluster.input_nets:
            ni = net_id[name]
            hs = readers.get(ni)
            if hs:
                cand.update(hs)
            if comb_src[ni]:
                o = owner[net_src[ni]]
                if o >= 0:
                    cand.add(o)
        node_id = cg.node_id
        for name in cluster.nodes:
            i = node_id[name]
            for p in range(out_start[i], out_start[i + 1]):
                hs = readers.get(out_net_ids[p])
                if hs:
                    cand.update(hs)
        cand.update(self.smallest_handles(8))
        return sorted(cand)

    def __len__(self) -> int:
        return len(self.by_handle)

    def live(self) -> List[Cluster]:
        return [self.by_handle[h] for h in sorted(self.by_handle)]

    def sum_iota(self) -> int:
        return sum(c.input_count for c in self.by_handle.values())


def assign_cbit(
    partition: Partition, use_compiled: bool = True
) -> AssignCBITResult:
    """Merge ``partition``'s clusters into near-``l_k`` CBIT partitions.

    Follows Table 8: repeatedly extract the cluster with the largest input
    count and greedily absorb the best-gain feasible partners until it is
    full; when the remaining clusters jointly fit one CBIT they are lumped
    into the final residual partition.  The best-partner search uses an
    exact indexed candidate set instead of a full O(m²) scan (see
    :class:`_WorkingSet`), and by default scores each candidate with the
    incremental count described in the module docstring
    (``use_compiled=False`` re-unions input sets via :func:`merge_gain`
    per candidate; both paths pick identical merges).

    Returns:
        An :class:`AssignCBITResult` whose partition satisfies Eq. 5 and
        whose ``cost_dff`` is the Table 1 catalogue cost of the assignment.
    """
    from ..cbit.types import cbit_cost_for_inputs

    graph = partition.graph
    lk = partition.lk
    work = _WorkingSet(graph, partition.clusters)
    cg = work.cg
    final: List[Cluster] = []
    n_merges = 0
    n_attempts = 0

    while len(work):
        # Residual lumping test (Table 8, STEP 4): Σι ≤ l_k guarantees the
        # union fits; when few clusters remain, do the exact union check.
        todo = work.live()
        if work.sum_iota() <= lk or (
            len(todo) <= 8 and _union_input_count(graph, todo) <= lk
        ):
            nodes: Set[str] = set()
            for c in todo:
                nodes.update(c.nodes)
            final.append(Cluster.from_nodes(len(final), graph, nodes))
            if len(todo) > 1:
                n_merges += len(todo) - 1
            break

        current = work.pop_largest()
        while current.input_count < lk and len(work):
            if use_compiled:
                best_h, n_cands = _best_partner_compiled(work, current, lk)
                n_attempts += n_cands
            else:
                best_h = -1
                best: Optional[MergeGain] = None
                for h in work.candidates_for(current):
                    n_attempts += 1
                    mg = merge_gain(graph, lk, current, work.by_handle[h])
                    if mg.feasible and mg.better_than(best):
                        best = mg
                        best_h = h
            if best_h < 0:
                break
            absorbed = work.remove(best_h)
            current = Cluster(
                cluster_id=current.cluster_id,
                nodes=current.nodes | absorbed.nodes,
                input_nets=merged_input_nets(graph, current, absorbed),
            )
            n_merges += 1
        final.append(current)

    final = [
        Cluster(cluster_id=i, nodes=c.nodes, input_nets=c.input_nets)
        for i, c in enumerate(final)
    ]
    merged_partition = Partition(
        graph, final, lk=lk, scc_index=partition.scc_index
    )
    perf_count("gain_evals", n_attempts)
    cost = 0.0
    for c in final:
        c_cost, _ = cbit_cost_for_inputs(c.input_count)
        cost += c_cost
    return AssignCBITResult(
        partition=merged_partition,
        cost_dff=cost,
        n_partitions=len(final),
        n_merges=n_merges,
    )


def assign_cbit_reference(partition: Partition) -> AssignCBITResult:
    """Reference twin of :func:`assign_cbit`.

    Scores every merge candidate by re-unioning input sets through
    :func:`merge_gain` instead of the incremental compiled count;
    both paths pick identical merges (the kernel-equivalence suite
    asserts bit-identity end to end).
    """
    return assign_cbit(partition, use_compiled=False)


def _best_partner_compiled(
    work: _WorkingSet, current: Cluster, lk: int
) -> Tuple[int, int]:
    """Best feasible merge partner for ``current`` (or -1) + candidates seen.

    Scores every candidate with the incremental ι count (no set unions);
    identical winner to the :func:`merge_gain` scan: candidates are
    visited in the same sorted-handle order with the same strict
    ``(gain, cuts_removed)`` comparison, so ties resolve to the same
    handle.
    """
    cg = work.cg
    net_id = cg.net_id
    node_id = cg.node_id
    net_src = cg.net_src
    comb_src = cg.comb_src
    inp_ep = cg.net_ep
    node_ep = cg.node_ep
    owner = work.node_owner

    ep = cg.next_epoch()
    owner_counts: Dict[int, int] = {}
    for name in current.input_nets:
        ni = net_id[name]
        inp_ep[ni] = ep
        if comb_src[ni]:
            o = owner[net_src[ni]]
            if o >= 0:
                owner_counts[o] = owner_counts.get(o, 0) + 1
    for name in current.nodes:
        node_ep[node_id[name]] = ep

    len_a = current.input_count
    net_ids = work.net_ids
    best_gain = 0
    best_cuts = -1
    best_h = -1
    cands = work.candidates_for(current)
    for h in cands:
        b_nids = net_ids[h]
        shared = 0
        b_int = 0
        for ni in b_nids:
            if inp_ep[ni] == ep:
                shared += 1
            elif comb_src[ni] and node_ep[net_src[ni]] == ep:
                b_int += 1
        a_int = owner_counts.get(h, 0)
        gain = lk - (len_a + len(b_nids) - shared - a_int - b_int)
        if gain < 0:
            continue
        cuts_removed = a_int + b_int
        if best_h < 0 or (gain, cuts_removed) > (best_gain, best_cuts):
            best_gain = gain
            best_cuts = cuts_removed
            best_h = h
    return best_h, len(cands)
