"""``Saturate_Network`` — probabilistic multicommodity-flow congestion probe.

Faithful implementation of Table 3 of the paper:

1. every net starts with ``d(e) = 1``, ``flow(e) = 0``, ``cap(e) = b``;
2. every node starts with ``visit(v) = 0``;
3. while some node has been a source fewer than ``min_visit`` times:
   pick such a node uniformly at random, compute the Dijkstra
   shortest-path tree from it under the current distances, and add ``Δ``
   of flow (re-exponentiating the distance) to every net of the tree;
4. the graph's compiled view now carries a congestion profile ``d(E)``.

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
    """Source counts of one saturation run.

    The congestion itself lives in the graph's compiled view
    (``compile_graph(graph).flow`` and ``.dist``).
    """

    n_sources: int  # Dijkstra runs performed
    visit: Dict[str, int]  # per-node source counts


def saturate_network(
    graph: CircuitGraph, config: Optional[MercedConfig] = None
) -> SaturationResult:
    """Run the modified ``Saturate_Network`` procedure on ``graph``.

    The ``min_visit × |V|`` Dijkstra runs all execute on one
    :class:`~repro.flow.index.FlowIndex` (integer-indexed adjacency),
    built here from the graph's cached
    :class:`~repro.graphs.csr.CompiledGraph` after its flow state is
    reset.  That is bit-identical to — and much faster than — driving
    :func:`repro.graphs.dijkstra.dijkstra_tree` per source.  The
    congestion is written into the compiled view, which is cached on
    ``graph``, so a graph belongs to one compile at a time.

    Args:
        graph: circuit graph; its compiled view's flow state is reset
            first.
        config: supplies ``Δ``, ``α``, ``b``, ``min_visit`` and the RNG
            seed.  Defaults to the paper's published parameters.

    Returns:
        A :class:`SaturationResult`; ``compile_graph(graph).dist`` now
        holds the congestion distances ``d(E)`` consumed by
        ``Make_Group``.
    """
    config = config or MercedConfig()
    compiled = compile_graph(graph)
    compiled.reset_flow()
    index = FlowIndex(compiled)
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
            index.inject(tree_nets, config.delta, config.alpha, config.cap)
            if (
                config.max_sources is not None
                and n_sources >= config.max_sources
            ):
                break
    perf_count("dijkstra_runs", n_sources)
    perf_count("relaxations", n_relaxations)
    perf_count("flow_injections", n_injections)
    return SaturationResult(n_sources=n_sources, visit=dict(sampler.visit))
