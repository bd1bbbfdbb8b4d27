"""Cross-validate our graph algorithms against networkx."""

import networkx as nx
import pytest

from repro.circuits import generate_by_name, s27_netlist
from repro.graphs import (
    build_circuit_graph,
    dijkstra_tree,
    strongly_connected_components,
)


def unit(graph):
    return {net.name: 1.0 for net in graph.nets()}


def to_networkx(graph, net_dist):
    g = nx.DiGraph()
    g.add_nodes_from(graph.nodes())
    for net in graph.nets():
        d = net_dist[net.name]
        for sink in net.sinks:
            # parallel branches collapse; keep the min distance
            if g.has_edge(net.source, sink):
                g[net.source][sink]["weight"] = min(
                    g[net.source][sink]["weight"], d
                )
            else:
                g.add_edge(net.source, sink, weight=d)
    return g


@pytest.fixture(scope="module", params=["s27", "s510", "s641"])
def pair(request):
    if request.param == "s27":
        nl = s27_netlist()
    else:
        nl = generate_by_name(request.param)
    ours = build_circuit_graph(nl, with_po_nodes=False)
    return ours, to_networkx(ours, unit(ours))


class TestSCCCrossCheck:
    def test_scc_partition_matches(self, pair):
        ours, theirs = pair
        mine = {frozenset(c) for c in strongly_connected_components(ours)}
        ref = {frozenset(c) for c in nx.strongly_connected_components(theirs)}
        assert mine == ref


class TestDijkstraCrossCheck:
    def test_distances_match_from_several_sources(self, pair):
        ours, theirs = pair
        sources = sorted(ours.nodes())[::7][:5]
        for src in sources:
            mine = dijkstra_tree(ours, src, unit(ours)).dist
            ref = nx.single_source_dijkstra_path_length(
                theirs, src, weight="weight"
            )
            assert set(mine) == set(ref)
            for node, d in ref.items():
                assert mine[node] == pytest.approx(d)

    def test_distances_match_with_nonuniform_weights(self, pair):
        ours, theirs = pair
        # perturb distances deterministically, rebuild the reference
        net_dist = {
            net.name: 1.0 + (i % 7) * 0.25
            for i, net in enumerate(ours.nets())
        }
        ref_graph = to_networkx(ours, net_dist)
        src = sorted(ours.nodes())[0]
        mine = dijkstra_tree(ours, src, net_dist).dist
        ref = nx.single_source_dijkstra_path_length(
            ref_graph, src, weight="weight"
        )
        assert set(mine) == set(ref)
        for node, d in ref.items():
            assert mine[node] == pytest.approx(d)
