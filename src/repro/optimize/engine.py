"""Legality-checked move engine over a live partition.

The refinement tier's working state: a mutable view of an
``Assign_CBIT`` partition supporting **node relocations** between
clusters (the primitive both the annealer's membership swaps and its
cut relocations reduce to), with every proposal checked against the
paper's two feasibility budgets *before* it can be applied:

* **Eq. 5** — ``ι(ϖ) ≤ l_k`` for both touched clusters, floored (like
  the Eq. 6 budgets) at each cluster's own current ι so oversized
  ``assign_cbit`` merges stay movable without ever growing;
* **Eq. 6** — per-SCC cut budgets ``χ(λ) ≤ β·f(λ)``, tracked
  incrementally: a relocation can only flip the cut status of nets
  incident to the moved node, so the per-SCC charge is updated from
  those flips alone (the same accounting rule the BUD prechecks bound
  from below, measured here on the live partition).

Determinism: all order-sensitive state (cut set, cluster table) lives in
insertion-ordered dicts and all exports sort by name, so the engine is
byte-deterministic regardless of ``PYTHONHASHSEED`` or worker count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from ..cbit.types import cbit_cost_for_inputs
from ..errors import PartitionError
from ..graphs.digraph import CircuitGraph, NodeKind
from ..graphs.scc import SCCIndex
from ..partition.clusters import Cluster, Partition, cluster_input_nets

__all__ = ["MoveEngine", "MoveRecord"]


@dataclass
class MoveRecord:
    """Undo information for one applied relocation."""

    node: str
    from_cid: int
    to_cid: int
    #: (nodes, input_nets) of the source cluster before the move; undo
    #: re-creates the cluster from it when the move emptied it.
    src_before: Tuple[FrozenSet[str], FrozenSet[str]]
    #: (nodes, input_nets) of the target cluster before the move, or
    #: ``None`` when the move created it.
    dst_before: Optional[Tuple[FrozenSet[str], FrozenSet[str]]]
    #: net name → became-cut (True) / became-internal (False)
    flips: Tuple[Tuple[str, bool], ...]
    sigma_delta: float


class MoveEngine:
    """Incremental Eq. 4/5/6 bookkeeping for partition refinement."""

    def __init__(
        self,
        graph: CircuitGraph,
        scc_index: SCCIndex,
        partition: Partition,
        beta: int,
    ):
        self.graph = graph
        self.scc_index = scc_index
        self.lk = partition.lk
        self.beta = beta
        # Working copies — the seed partition's clusters are never
        # mutated, so the caller can fall back to them unchanged.
        self.clusters: Dict[int, Cluster] = {}
        self.owner: Dict[str, int] = {}
        for c in partition.clusters:
            cl = Cluster(
                cluster_id=c.cluster_id,
                nodes=c.nodes,
                input_nets=c.input_nets,
            )
            self.clusters[cl.cluster_id] = cl
            for node in cl.nodes:
                self.owner[node] = cl.cluster_id
        self._next_cid = max(self.clusters, default=-1) + 1
        #: hard ι ceiling: moves ratchet per-cluster (max(l_k, current ι)),
        #: so no cluster can ever exceed the worst of l_k and the seed.
        self.iota_ceiling = max(
            [self.lk] + [c.input_count for c in self.clusters.values()]
        )

        #: insertion-ordered set of current cut nets (deterministic
        #: iteration order: seeded by sorted names, then move history).
        self.cut: Dict[str, None] = dict.fromkeys(
            sorted(partition.cut_nets())
        )

        # Eq. 6 state: charged cuts per SCC and their budgets.  The
        # budget floors at the seed's own charge so a (rare) seed
        # already at or over β·f(λ) is admissible but can never be
        # worsened by a move.
        self.scc_cuts: Dict[int, int] = {}
        for name in self.cut:
            info = self.scc_index.scc_of_net(name)
            if info is not None:
                self.scc_cuts[info.scc_id] = (
                    self.scc_cuts.get(info.scc_id, 0) + 1
                )
        self.scc_budget: Dict[int, int] = {}
        for info in self.scc_index.sccs():
            self.scc_budget[info.scc_id] = max(
                info.cut_budget(beta), self.scc_cuts.get(info.scc_id, 0)
            )

        self.sigma: float = self.sigma_of(self.snapshot())

    # ------------------------------------------------------------------
    def _is_cut_hypo(self, net_name: str, moved: str, to_cid: int) -> bool:
        """Cut status of a net with ``moved`` hypothetically relocated."""
        net = self.graph.net(net_name)
        if self.graph.kind(net.source) is not NodeKind.COMB:
            return False
        src_cid = (
            to_cid if net.source == moved else self.owner.get(net.source)
        )
        for sink in net.sinks:
            if self.graph.kind(sink) is not NodeKind.COMB:
                continue
            cid = to_cid if sink == moved else self.owner.get(sink)
            if cid != src_cid:
                return True
        return False

    # ------------------------------------------------------------------
    @property
    def n_cuts(self) -> int:
        return len(self.cut)

    def movable_nodes(self) -> List[str]:
        """Relocatable nodes: every cluster member, sorted."""
        return sorted(self.owner)

    def new_cluster_id(self) -> int:
        """The id a relocation into a fresh cluster would use."""
        return self._next_cid

    def try_move(self, node: str, to_cid: int) -> Optional[MoveRecord]:
        """Relocate ``node`` to cluster ``to_cid`` if legal.

        ``to_cid == new_cluster_id()`` opens a fresh singleton cluster.
        Returns the applied :class:`MoveRecord` (pass to :meth:`undo`),
        or ``None`` when the move is illegal under Eq. 5/6 or a no-op —
        in which case **no state was modified**.
        """
        if node not in self.owner:
            return None
        from_cid = self.owner[node]
        if to_cid == from_cid:
            return None
        src = self.clusters[from_cid]
        dst = self.clusters.get(to_cid)
        if dst is None and to_cid != self._next_cid:
            return None

        new_src_nodes = src.nodes - {node}
        new_dst_nodes = (dst.nodes if dst is not None else frozenset()) | {
            node
        }
        new_src_inputs = (
            frozenset(cluster_input_nets(self.graph, new_src_nodes))
            if new_src_nodes
            else frozenset()
        )
        new_dst_inputs = frozenset(
            cluster_input_nets(self.graph, new_dst_nodes)
        )
        # Eq. 5 precheck on the two touched clusters.  Like the Eq. 6
        # budget, the bound floors at the cluster's own current ι:
        # ``assign_cbit`` merges may legitimately exceed l_k (they pay
        # for it through the catalogue), so an oversized seed cluster
        # stays movable — but no move may push any cluster past
        # max(l_k, its ι before the move).
        if len(new_src_inputs) > max(self.lk, src.input_count):
            return None
        dst_cap = self.lk if dst is None else max(self.lk, dst.input_count)
        if len(new_dst_inputs) > dst_cap:
            return None

        # cut flips are confined to nets incident to the moved node
        flips: List[Tuple[str, bool]] = []
        seen: Set[str] = set()
        for net in self.graph.in_nets(node) + self.graph.out_nets(node):
            if net.name in seen:
                continue
            seen.add(net.name)
            was = net.name in self.cut
            now = self._is_cut_hypo(net.name, node, to_cid)
            if was != now:
                flips.append((net.name, now))

        # Eq. 6 precheck: apply the flip deltas to the per-SCC charges
        deltas: Dict[int, int] = {}
        for name, becomes_cut in flips:
            info = self.scc_index.scc_of_net(name)
            if info is not None:
                deltas[info.scc_id] = deltas.get(info.scc_id, 0) + (
                    1 if becomes_cut else -1
                )
        for scc_id, delta in deltas.items():
            if (
                self.scc_cuts.get(scc_id, 0) + delta
                > self.scc_budget[scc_id]
            ):
                return None

        # Eq. 4: Σ changes only through the two touched clusters
        old_cost = cbit_cost_for_inputs(src.input_count)[0] + (
            cbit_cost_for_inputs(dst.input_count)[0]
            if dst is not None
            else 0.0
        )
        new_cost = (
            cbit_cost_for_inputs(len(new_src_inputs))[0]
            if new_src_nodes
            else 0.0
        ) + cbit_cost_for_inputs(len(new_dst_inputs))[0]

        # ---- commit ---------------------------------------------------
        record = MoveRecord(
            node=node,
            from_cid=from_cid,
            to_cid=to_cid,
            src_before=(src.nodes, src.input_nets),
            dst_before=(
                (dst.nodes, dst.input_nets) if dst is not None else None
            ),
            flips=tuple(flips),
            sigma_delta=new_cost - old_cost,
        )
        if new_src_nodes:
            src.nodes, src.input_nets = new_src_nodes, new_src_inputs
        else:
            del self.clusters[from_cid]
        if dst is None:
            dst = Cluster(
                cluster_id=to_cid,
                nodes=new_dst_nodes,
                input_nets=new_dst_inputs,
            )
            self.clusters[to_cid] = dst
            self._next_cid = to_cid + 1
        else:
            dst.nodes, dst.input_nets = new_dst_nodes, new_dst_inputs
        self.owner[node] = to_cid
        for name, becomes_cut in flips:
            if becomes_cut:
                self.cut[name] = None
            else:
                del self.cut[name]
        for scc_id, delta in deltas.items():
            self.scc_cuts[scc_id] = self.scc_cuts.get(scc_id, 0) + delta
        self.sigma += record.sigma_delta
        return record

    def undo(self, record: MoveRecord) -> None:
        """Revert an applied move (LIFO with respect to :meth:`try_move`)."""
        node = record.node
        # target side first: shrink or drop the cluster we grew
        dst = self.clusters[record.to_cid]
        if record.dst_before is None:
            del self.clusters[record.to_cid]
            self._next_cid = record.to_cid
        else:
            dst.nodes, dst.input_nets = record.dst_before
        # source side: restore or resurrect
        src = self.clusters.get(record.from_cid)
        if src is None:
            src = Cluster(
                cluster_id=record.from_cid,
                nodes=record.src_before[0],
                input_nets=record.src_before[1],
            )
            self.clusters[record.from_cid] = src
        else:
            src.nodes, src.input_nets = record.src_before
        self.owner[node] = record.from_cid
        for name, became_cut in record.flips:
            if became_cut:
                del self.cut[name]
            else:
                self.cut[name] = None
            info = self.scc_index.scc_of_net(name)
            if info is not None:
                self.scc_cuts[info.scc_id] += -1 if became_cut else 1
        self.sigma -= record.sigma_delta

    # ------------------------------------------------------------------
    def cut_nets(self) -> List[str]:
        """Current cut nets, sorted (solver-ready)."""
        return sorted(self.cut)

    def snapshot(self) -> Dict[int, Tuple[FrozenSet[str], FrozenSet[str]]]:
        """Deep-enough copy of the cluster table for best-state tracking."""
        return {
            cid: (c.nodes, c.input_nets)
            for cid, c in self.clusters.items()
        }

    def export_partition(
        self,
        snapshot: Optional[
            Dict[int, Tuple[FrozenSet[str], FrozenSet[str]]]
        ] = None,
        scc_index: Optional[SCCIndex] = None,
    ) -> Partition:
        """Materialise a fresh :class:`Partition` (ids renumbered 0..m-1)."""
        table = snapshot if snapshot is not None else self.snapshot()
        clusters = [
            Cluster(cluster_id=i, nodes=nodes, input_nets=inputs)
            for i, (_cid, (nodes, inputs)) in enumerate(
                sorted(table.items())
            )
        ]
        return Partition(
            self.graph,
            clusters,
            lk=self.lk,
            scc_index=scc_index or self.scc_index,
        )

    def sigma_of(
        self, snapshot: Dict[int, Tuple[FrozenSet[str], FrozenSet[str]]]
    ) -> float:
        """Eq. 4 cost of a snapshot (no engine state touched)."""
        return sum(
            cbit_cost_for_inputs(len(inputs))[0]
            for _nodes, inputs in snapshot.values()
        )

    # ------------------------------------------------------------------
    def assert_consistent(self) -> None:
        """Full recount of every incremental invariant (audit hook).

        Recomputes input nets, the cut set, the per-SCC charges, and Σ
        from scratch and compares them against the incremental state;
        also enforces Eq. 5 and the Eq. 6 budgets.  Raises
        :class:`~repro.errors.PartitionError` on the first divergence —
        the hypothesis property suite runs the annealer with this after
        every accepted move.
        """
        for cid, c in self.clusters.items():
            recount = cluster_input_nets(self.graph, c.nodes)
            if recount != set(c.input_nets):
                raise PartitionError(f"cluster {cid}: input nets stale")
            if c.input_count > self.iota_ceiling:
                raise PartitionError(
                    f"cluster {cid}: ι={c.input_count} > ceiling "
                    f"{self.iota_ceiling} (Eq. 5 ratchet violated)"
                )
        fresh_cuts = set(self.export_partition().cut_nets())
        if fresh_cuts != set(self.cut):
            raise PartitionError("incremental cut set diverged from recount")
        fresh_scc: Dict[int, int] = {}
        for name in fresh_cuts:
            info = self.scc_index.scc_of_net(name)
            if info is not None:
                fresh_scc[info.scc_id] = fresh_scc.get(info.scc_id, 0) + 1
        for scc_id, budget in self.scc_budget.items():
            have = self.scc_cuts.get(scc_id, 0)
            if have != fresh_scc.get(scc_id, 0):
                raise PartitionError(
                    f"SCC {scc_id}: incremental charge {have} != recount "
                    f"{fresh_scc.get(scc_id, 0)}"
                )
            if have > budget:
                raise PartitionError(
                    f"SCC {scc_id}: charge {have} > budget {budget} "
                    "(Eq. 6 violated)"
                )
        fresh_sigma = self.sigma_of(self.snapshot())
        if abs(fresh_sigma - self.sigma) > 1e-6:
            raise PartitionError(
                f"incremental Σ {self.sigma} != recount {fresh_sigma}"
            )
