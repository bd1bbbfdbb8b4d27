"""CircuitGraph container: nodes, multi-pin nets; compiled flow state."""

from dataclasses import FrozenInstanceError, fields

import pytest

from repro.errors import GraphError
from repro.graphs import CircuitGraph, NodeKind, compile_graph


@pytest.fixture
def g():
    graph = CircuitGraph("g")
    graph.add_node("pi", NodeKind.INPUT)
    graph.add_node("c1", NodeKind.COMB)
    graph.add_node("c2", NodeKind.COMB)
    graph.add_node("r", NodeKind.REGISTER)
    graph.add_net("pi", "pi", ["c1", "c2"])
    graph.add_net("c1", "c1", ["r"])
    graph.add_net("r", "r", ["c2"])
    return graph


class TestConstruction:
    def test_duplicate_node(self, g):
        with pytest.raises(GraphError):
            g.add_node("pi", NodeKind.COMB)

    def test_duplicate_net(self, g):
        with pytest.raises(GraphError):
            g.add_net("pi", "pi", ["c1"])

    def test_unknown_endpoint(self, g):
        with pytest.raises(GraphError):
            g.add_net("bad", "ghost", ["c1"])
        with pytest.raises(GraphError):
            g.add_net("bad", "c2", ["ghost"])

    def test_empty_sinks_rejected(self, g):
        with pytest.raises(GraphError):
            g.add_net("bad", "c2", [])


class TestQueries:
    def test_kinds(self, g):
        assert g.kind("r") is NodeKind.REGISTER
        assert g.kind("pi") is NodeKind.INPUT
        with pytest.raises(GraphError):
            g.kind("ghost")

    def test_node_partitions(self, g):
        assert g.register_nodes() == ["r"]

    def test_counts(self, g):
        assert g.n_nodes == 4
        assert g.n_nets == 3

    def test_successors_deduplicated(self, g):
        g.add_node("c3", NodeKind.COMB)
        g.add_net("c2", "c2", ["c3", "c3"])
        assert g.successors("c2") == ["c3"]

    def test_predecessors(self, g):
        assert set(g.predecessors("c2")) == {"pi", "r"}

    def test_in_out_nets(self, g):
        assert [n.name for n in g.out_nets("pi")] == ["pi"]
        assert {n.name for n in g.in_nets("c2")} == {"pi", "r"}


class TestFlowState:
    def test_reset(self, g):
        cg = compile_graph(g)
        i = cg.net_id["pi"]
        cg.flow[i] = 3.0
        cg.dist[i] = 9.0
        cg.reset_flow()
        assert cg.flow == [0.0] * g.n_nets
        assert cg.dist == [1.0] * g.n_nets

    def test_net_is_topology_only(self, g):
        net = g.net("pi")
        assert [f.name for f in fields(net)] == ["name", "source", "sinks"]
        with pytest.raises(FrozenInstanceError):
            net.dist = 9.0

    def test_fanout_property(self, g):
        assert g.net("pi").fanout == 2
