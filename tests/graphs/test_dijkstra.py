"""Dijkstra shortest-path trees over net distances."""

import pytest

from repro.graphs import CircuitGraph, NodeKind, dijkstra_tree


def unit(graph):
    """Every net at the pristine distance d(e) = 1."""
    return {net.name: 1.0 for net in graph.nets()}


@pytest.fixture
def diamond():
    """pi -> (short: a) -> sink ; pi -> (long: b, c) -> sink."""
    g = CircuitGraph("diamond")
    for n in ["pi", "a", "b", "c", "sink"]:
        g.add_node(n, NodeKind.COMB)
    g.add_net("pa", "pi", ["a"])
    g.add_net("pb", "pi", ["b"])
    g.add_net("as", "a", ["sink"])
    g.add_net("bc", "b", ["c"])
    g.add_net("cs", "c", ["sink"])
    return g


class TestBasics:
    def test_unit_distances(self, diamond):
        tree = dijkstra_tree(diamond, "pi", unit(diamond))
        assert tree.dist["sink"] == 2.0
        assert tree.dist["pi"] == 0.0
        assert set(tree.reached()) == {"pi", "a", "b", "c", "sink"}

    def test_weighted_path_switches(self, diamond):
        net_dist = unit(diamond)
        net_dist["pa"] = 10.0
        tree = dijkstra_tree(diamond, "pi", net_dist)
        assert tree.dist["sink"] == 3.0
        assert tree.parent_net["sink"] == "cs"

    def test_tree_nets_are_unique(self, diamond):
        tree = dijkstra_tree(diamond, "pi", unit(diamond))
        nets = tree.tree_nets()
        assert len(nets) == len(set(nets))

    def test_multi_pin_net_charged_once(self):
        g = CircuitGraph("fan")
        for n in ["s", "x", "y"]:
            g.add_node(n, NodeKind.COMB)
        g.add_net("fan", "s", ["x", "y"])
        tree = dijkstra_tree(g, "s", unit(g))
        assert tree.dist["x"] == tree.dist["y"] == 1.0
        assert tree.tree_nets() == ["fan"]


class TestOnCircuits:
    def test_s27_reaches_feedback(self, s27_graph):
        tree = dijkstra_tree(s27_graph, "G0", unit(s27_graph))
        # G0 -> G14 -> G10 -> G5 -> G11 ... the whole feedback core
        assert "G11" in tree.dist
        assert "G17" not in tree.dist or True  # G17 only via PO graph

    def test_unreachable_from_sink_node(self, s27_graph):
        tree = dijkstra_tree(s27_graph, "G17", unit(s27_graph))
        assert tree.reached() == ["G17"]

    def test_determinism(self, s27_graph):
        t1 = dijkstra_tree(s27_graph, "G0", unit(s27_graph))
        t2 = dijkstra_tree(s27_graph, "G0", unit(s27_graph))
        assert t1.parent_net == t2.parent_net
