"""Tarjan SCC + SCCIndex (paper STEP 2, Eq. 6 bookkeeping)."""

import pytest

from repro.graphs import (
    CircuitGraph,
    NodeKind,
    SCCIndex,
    build_circuit_graph,
    strongly_connected_components,
)


def chain_graph(n):
    g = CircuitGraph("chain")
    for i in range(n):
        g.add_node(f"n{i}", NodeKind.COMB)
    for i in range(n - 1):
        g.add_net(f"e{i}", f"n{i}", [f"n{i+1}"])
    return g


class TestTarjan:
    def test_acyclic_graph_all_singletons(self):
        comps = strongly_connected_components(chain_graph(5))
        assert sorted(len(c) for c in comps) == [1] * 5

    def test_simple_cycle(self):
        g = chain_graph(4)
        g.add_net("back", "n3", ["n0"])
        comps = strongly_connected_components(g)
        assert sorted(len(c) for c in comps) == [4]

    def test_two_cycles(self):
        g = CircuitGraph("two")
        for n in "abcdef":
            g.add_node(n, NodeKind.COMB)
        g.add_net("ab", "a", ["b"])
        g.add_net("ba", "b", ["a"])
        g.add_net("bc", "b", ["c"])  # bridge
        g.add_net("cd", "c", ["d"])
        g.add_net("dc", "d", ["c"])
        g.add_net("de", "d", ["e"])
        comps = {frozenset(c) for c in strongly_connected_components(g)}
        assert frozenset("ab") in comps
        assert frozenset("cd") in comps

    def test_emission_is_reverse_topological(self):
        g = chain_graph(3)
        comps = strongly_connected_components(g)
        order = [c[0] for c in comps]
        assert order.index("n2") < order.index("n0")

    def test_deep_graph_no_recursion_error(self):
        comps = strongly_connected_components(chain_graph(5000))
        assert len(comps) == 5000

    def test_s27_sccs(self, s27_graph):
        comps = [
            c for c in strongly_connected_components(s27_graph) if len(c) > 1
        ]
        # s27 has two feedback structures: {G5,G10?,G11,G9,...} etc.
        nodes = set().union(*map(set, comps))
        assert "G11" in nodes  # the central feedback signal


class TestSCCIndex:
    def test_s27_register_count(self, s27_scc):
        assert s27_scc.registers_on_sccs() == 3  # all 3 DFFs are on cycles

    def test_ring_fixture(self, ring_graph):
        idx = SCCIndex(ring_graph)
        assert len(idx) == 1
        scc = idx.sccs()[0]
        assert scc.register_count == 2
        assert set(scc.nodes) == {"g1", "q1", "g2", "q2"}

    def test_internal_nets(self, ring_graph):
        idx = SCCIndex(ring_graph)
        scc = idx.sccs()[0]
        assert set(scc.internal_nets) == {"g1", "q1", "g2", "q2"}

    def test_net_on_scc_lookup(self, ring_graph):
        idx = SCCIndex(ring_graph)
        assert idx.net_on_scc("g1")
        # the tail inverter's input net g2 IS internal (g2 is in the SCC
        # and fans to q2 inside) — but no net of "tail" exists
        assert idx.scc_of_net("g2") is idx.sccs()[0]
        assert idx.scc_of_net("tail") is None

    def test_pipeline_has_no_scc(self, pipeline):
        g = build_circuit_graph(pipeline, with_po_nodes=False)
        assert len(SCCIndex(g)) == 0
        assert SCCIndex(g).registers_on_sccs() == 0

    def test_self_net_single_node_scc(self):
        g = CircuitGraph("self")
        g.add_node("r", NodeKind.REGISTER)
        g.add_node("c", NodeKind.COMB)
        g.add_net("r", "r", ["r", "c"])  # self loop branch
        idx = SCCIndex(g)
        assert len(idx) == 1
        assert idx.sccs()[0].register_count == 1

    def test_cut_budget(self, ring_graph):
        idx = SCCIndex(ring_graph)
        scc = idx.sccs()[0]
        assert scc.cut_budget(beta=1) == 2
        assert scc.cut_budget(beta=50) == 100

    def test_generated_circuit_matches_profile(self, s510):
        g = build_circuit_graph(s510, with_po_nodes=False)
        assert SCCIndex(g).registers_on_sccs() == 6
