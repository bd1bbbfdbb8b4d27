"""Simulated-annealing PIC partitioner — the authors' earlier approach.

Reference [4] of the paper (Liou/Lin/Cheng/Liu, CICC 1994) solved the
same partition-with-input-constraint problem by simulated annealing; the
DAC'96 paper replaces it with the multicommodity-flow heuristic.  This
module reimplements the SA baseline so the flow method can be compared
against it (solution quality vs runtime), as our ablation bench does.

State: an assignment of register/combinational nodes to ``m`` blocks.
Moves: relocate one node to another block.  Cost: the number of cut nets
plus a penalty for blocks exceeding ``l_k`` inputs (the annealer explores
infeasible space early, the penalty weight grows as temperature falls).
"""

from __future__ import annotations

import math
import random
from typing import Dict, List, Optional, Set

from ..config import MercedConfig
from ..errors import PartitionError
from ..graphs.digraph import CircuitGraph, NodeKind
from ..graphs.scc import SCCIndex
from ..partition.clusters import Cluster, Partition, cluster_input_nets

__all__ = ["anneal_partition"]

#: Geometric cooling schedule: start and end temperatures.
_T_START = 5.0
_T_END = 0.05


class _State:
    """Incremental cost bookkeeping for the annealer."""

    def __init__(self, graph: CircuitGraph, nodes: List[str], m: int, rng):
        self.graph = graph
        self.nodes = nodes
        self.m = m
        self.block: Dict[str, int] = {
            n: rng.randrange(m) for n in nodes
        }
        self.members: List[Set[str]] = [set() for _ in range(m)]
        for n, b in self.block.items():
            self.members[b].add(n)

    def input_count(self, b: int) -> int:
        return len(cluster_input_nets(self.graph, self.members[b]))

    def cut_count(self) -> int:
        cuts = 0
        for net in self.graph.nets():
            src = net.source
            if self.graph.kind(src) is not NodeKind.COMB:
                continue
            sb = self.block.get(src)
            for sink in net.sinks:
                if (
                    self.graph.kind(sink) is NodeKind.COMB
                    and self.block.get(sink) != sb
                ):
                    cuts += 1
                    break
        return cuts

    def cost(self, lk: int, penalty: float) -> float:
        over = sum(
            max(0, self.input_count(b) - lk) for b in range(self.m)
        )
        return self.cut_count() + penalty * over

    def move(self, node: str, to_block: int) -> int:
        old = self.block[node]
        self.members[old].discard(node)
        self.members[to_block].add(node)
        self.block[node] = to_block
        return old


def anneal_partition(
    graph: CircuitGraph,
    m: int,
    config: Optional[MercedConfig] = None,
    n_steps: int = 4000,
    scc_index: Optional[SCCIndex] = None,
) -> Partition:
    """Partition ``graph`` into ``m`` blocks by simulated annealing.

    Args:
        graph: the circuit graph (registers + combinational nodes are
            assigned; primary inputs stay global, as in the flow method).
        m: number of blocks (the flow method discovers its own ``m``; the
            SA formulation of [4] fixes it up front — pass the flow
            result's partition count for a like-for-like comparison).
        config: supplies ``l_k`` and the RNG seed.
        n_steps: annealing schedule length (geometric cooling from
            temperature 5.0 to 0.05).

    Returns:
        The partition, which may violate Eq. 5 if the annealer could not
        reach feasibility — check ``partition.is_feasible()``.
    """
    config = config or MercedConfig()
    if m < 1:
        raise PartitionError("m must be at least 1")
    rng = random.Random(config.seed)
    nodes = [
        n for n in graph.nodes() if graph.kind(n) is not NodeKind.INPUT
    ]
    if not nodes:
        raise PartitionError("graph has no assignable nodes")
    state = _State(graph, nodes, m, rng)

    alpha = (_T_END / _T_START) ** (1.0 / max(1, n_steps - 1))
    temp = _T_START
    penalty = 2.0
    current = state.cost(config.lk, penalty)
    for step in range(n_steps):
        node = nodes[rng.randrange(len(nodes))]
        target = rng.randrange(m)
        if target == state.block[node]:
            temp *= alpha
            continue
        old = state.move(node, target)
        penalty = 2.0 + 8.0 * (step / n_steps)  # tighten feasibility late
        candidate = state.cost(config.lk, penalty)
        delta = candidate - current
        if delta <= 0 or rng.random() < math.exp(-delta / max(temp, 1e-9)):
            current = candidate
        else:
            state.move(node, old)
        temp *= alpha

    clusters = [
        Cluster.from_nodes(i, graph, members)
        for i, members in enumerate(state.members)
        if members
    ]
    clusters = [
        Cluster(cluster_id=i, nodes=c.nodes, input_nets=c.input_nets)
        for i, c in enumerate(clusters)
    ]
    return Partition(graph, clusters, lk=config.lk, scc_index=scc_index)
