"""``Saturate_Network`` — probabilistic multicommodity-flow congestion probe.

Faithful implementation of Table 3 of the paper:

1. every net starts with ``d(e) = 1``, ``flow(e) = 0``, ``cap(e) = b``;
2. every node starts with ``visit(v) = 0``;
3. while some node has been a source fewer than ``min_visit`` times:
   pick such a node uniformly at random, compute the Dijkstra
   shortest-path tree from it under the current distances, and add ``Δ``
   of flow (re-exponentiating the distance) to every net of the tree;
4. the graph now carries a congestion profile ``d(E)``.

Nets inside strongly connected regions absorb flow from many sources and
end up with the largest distances (the paper's Figure 5), which is what
drives the ``Make_Group`` cut ordering.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..config import MercedConfig
from ..graphs.csr import compile_graph
from ..graphs.digraph import CircuitGraph
from ..perf import count as perf_count
from ..perf import stage as perf_stage
from .index import FlowIndex
from .rng import FairSampler

__all__ = ["SaturationResult", "saturate_network"]


@dataclass(frozen=True)
class SaturationResult:
    """Summary statistics of one saturation run.

    The congestion itself lives on the graph (each net's ``flow``/``dist``).
    """

    n_sources: int  # Dijkstra runs performed
    total_flow: float  # sum of flow over all nets
    max_flow: float
    max_dist: float
    visit: Dict[str, int]  # per-node source counts

    @property
    def mean_visit(self) -> float:
        return (
            sum(self.visit.values()) / len(self.visit) if self.visit else 0.0
        )


def saturate_network(
    graph: CircuitGraph, config: Optional[MercedConfig] = None
) -> SaturationResult:
    """Run the modified ``Saturate_Network`` procedure on ``graph`` in place.

    The ``min_visit × |V|`` Dijkstra runs all execute on one
    :class:`~repro.flow.index.FlowIndex` (integer-indexed adjacency +
    dense flow arrays), built here from the graph's cached
    :class:`~repro.graphs.csr.CompiledGraph` after the flow state is
    reset.  That is bit-identical to — and much faster than — driving
    :func:`repro.graphs.dijkstra.dijkstra_tree` per source.  The
    congestion is written onto ``graph`` itself, so a graph belongs to
    one compile at a time.

    Args:
        graph: circuit graph; its per-net flow state is reset first.
        config: supplies ``Δ``, ``α``, ``b``, ``min_visit`` and the RNG
            seed.  Defaults to the paper's published parameters.

    Returns:
        A :class:`SaturationResult`; the graph's nets now carry the
        congestion distances ``d(E)`` consumed by ``Make_Group``.
    """
    config = config or MercedConfig()
    graph.reset_flow_state(cap=config.cap)
    index = FlowIndex(compile_graph(graph))
    sampler = FairSampler(
        list(graph.nodes()), min_visit=config.min_visit, seed=config.seed
    )
    n_sources = 0
    n_relaxations = 0
    n_injections = 0
    with perf_stage("saturate"):
        for source in sampler:
            n_sources += 1
            tree_nets, relaxed = index.tree_nets_from(source)
            n_relaxations += relaxed
            n_injections += len(tree_nets)
            index.inject(tree_nets, config.delta, config.alpha)
            if (
                config.max_sources is not None
                and n_sources >= config.max_sources
            ):
                break
        index.flush()
    perf_count("dijkstra_runs", n_sources)
    perf_count("relaxations", n_relaxations)
    perf_count("flow_injections", n_injections)
    total = max_flow = max_dist = 0.0
    for net in graph.nets():
        total += net.flow
        if net.flow > max_flow:
            max_flow = net.flow
        if net.dist > max_dist:
            max_dist = net.dist
    return SaturationResult(
        n_sources=n_sources,
        total_flow=total,
        max_flow=max_flow,
        max_dist=max_dist,
        visit=dict(sampler.visit),
    )
