"""Clusters, input counts ι, and the partition container.

Semantics (see DESIGN.md §5 and paper §2.3):

* A cluster ``ϖ`` is a set of register and combinational nodes (primary
  inputs are never cluster members — they are pattern sources shared by
  all clusters).
* The circuit-under-test (CUT) of a cluster is its combinational cells.
* The **input count** ``ι(ϖ)`` is the number of distinct nets feeding the
  cluster's combinational cells from a test-register boundary: nets
  sourced by a primary input, by any DFF, or by a combinational cell
  *outside* the cluster (i.e. a cut net entering the cluster).
* A **cut net** of a partition is a combinational-sourced net with at
  least one combinational sink in a different cluster than its source.
  Nets sourced by DFFs/PIs are free boundaries and are never "cut";
  branches sinking into DFFs never force a cut (the DFF is already the
  signature register).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set

from ..errors import PartitionError
from ..graphs.digraph import CircuitGraph, NodeKind
from ..graphs.scc import SCCIndex

__all__ = [
    "cluster_input_count",
    "cluster_input_nets",
    "Cluster",
    "Partition",
]


def cluster_input_nets(graph: CircuitGraph, nodes: Iterable[str]) -> Set[str]:
    """Distinct nets that are inputs of the CUT formed by ``nodes``.

    A net counts when it feeds a combinational member of the cluster and is
    sourced by a primary input, a register, or a combinational cell outside
    the cluster.
    """
    members = set(nodes)
    inputs: Set[str] = set()
    for node in members:
        if graph.kind(node) is not NodeKind.COMB:
            continue
        for net in graph.in_nets(node):
            src = net.source
            if graph.kind(src) is not NodeKind.COMB or src not in members:
                inputs.add(net.name)
    return inputs


def cluster_input_count(graph: CircuitGraph, nodes: Iterable[str]) -> int:
    """``ι(ϖ)`` — see :func:`cluster_input_nets`."""
    return len(cluster_input_nets(graph, nodes))


@dataclass
class Cluster:
    """One cluster produced by ``Make_Group``/``Assign_CBIT``."""

    cluster_id: int
    nodes: FrozenSet[str]
    input_nets: FrozenSet[str] = frozenset()

    @property
    def input_count(self) -> int:
        """ι(ϖ) — the number of input nets (O(1) on a frozenset)."""
        return len(self.input_nets)

    @property
    def size(self) -> int:
        return len(self.nodes)

    @staticmethod
    def from_nodes(
        cluster_id: int, graph: CircuitGraph, nodes: Iterable[str]
    ) -> "Cluster":
        nodes = frozenset(nodes)
        return Cluster(
            cluster_id=cluster_id,
            nodes=nodes,
            input_nets=frozenset(cluster_input_nets(graph, nodes)),
        )


class Partition:
    """A complete input-constraint partition ``Π_m`` of a circuit graph."""

    def __init__(
        self,
        graph: CircuitGraph,
        clusters: Sequence[Cluster],
        lk: int,
        scc_index: Optional[SCCIndex] = None,
    ):
        self.graph = graph
        self.lk = lk
        self.clusters: List[Cluster] = list(clusters)
        self.scc_index = scc_index
        self._owner: Dict[str, int] = {}
        for cl in self.clusters:
            for node in cl.nodes:
                if node in self._owner:
                    raise PartitionError(
                        f"node {node!r} assigned to clusters "
                        f"{self._owner[node]} and {cl.cluster_id}"
                    )
                self._owner[node] = cl.cluster_id
        self._by_id = {cl.cluster_id: cl for cl in self.clusters}

    # ------------------------------------------------------------------
    def cluster_of(self, node: str) -> Optional[Cluster]:
        cid = self._owner.get(node)
        return None if cid is None else self._by_id[cid]

    @property
    def m(self) -> int:
        """Number of clusters (the ``m`` of the m-way partition)."""
        return len(self.clusters)

    def covered_nodes(self) -> Set[str]:
        return set(self._owner)

    def max_input_count(self) -> int:
        return max((c.input_count for c in self.clusters), default=0)

    def is_feasible(self) -> bool:
        """Eq. 5: every cluster's ι within the bound ``l_k``."""
        return self.max_input_count() <= self.lk

    # ------------------------------------------------------------------
    def cut_nets(self) -> List[str]:
        """Combinational nets crossing cluster boundaries into comb sinks.

        These are the nets that require a test register (A_CELL) in the
        PPET implementation; the count is the paper's "nets cut" column.
        """
        cuts: List[str] = []
        for net in self.graph.nets():
            src = net.source
            if self.graph.kind(src) is not NodeKind.COMB:
                continue
            src_cid = self._owner.get(src)
            for sink in net.sinks:
                if self.graph.kind(sink) is not NodeKind.COMB:
                    continue
                if self._owner.get(sink) != src_cid:
                    cuts.append(net.name)
                    break
        return cuts

    def cut_nets_on_scc(self) -> List[str]:
        """The subset of :meth:`cut_nets` internal to some SCC (Table 10 col 4)."""
        if self.scc_index is None:
            raise PartitionError("partition has no SCC index attached")
        return [n for n in self.cut_nets() if self.scc_index.net_on_scc(n)]

    def validate(self) -> None:
        """Check partition invariants; raise :class:`PartitionError` on failure.

        * clusters are disjoint (enforced at construction) and cover every
          register and combinational node of the graph;
        * every cluster's recorded input nets match a recount;
        * clusters are non-empty.
        """
        expected = {
            n
            for n in self.graph.nodes()
            if self.graph.kind(n) is not NodeKind.INPUT
        }
        covered = self.covered_nodes()
        if covered != expected:
            missing = sorted(expected - covered)[:5]
            extra = sorted(covered - expected)[:5]
            raise PartitionError(
                f"partition must cover register+comb nodes exactly; "
                f"missing={missing} extra={extra}"
            )
        for cl in self.clusters:
            if not cl.nodes:
                raise PartitionError(f"cluster {cl.cluster_id} is empty")
            recount = cluster_input_nets(self.graph, cl.nodes)
            if recount != set(cl.input_nets):
                raise PartitionError(
                    f"cluster {cl.cluster_id} input nets are stale"
                )

    def summary(self) -> str:
        sizes = sorted((c.input_count for c in self.clusters), reverse=True)
        return (
            f"{self.m} clusters, max ι={self.max_input_count()} (l_k={self.lk}), "
            f"{len(self.cut_nets())} cut nets, ι profile={sizes[:10]}"
            + ("..." if len(sizes) > 10 else "")
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Partition {self.summary()}>"
