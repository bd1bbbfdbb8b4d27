"""Netlist → multi-pin graph conversion (paper Figure 2)."""

import pytest

from repro.graphs import NodeKind, build_circuit_graph, is_po_node


class TestS27Graph:
    def test_node_counts_without_po(self, s27_graph):
        # 4 PIs + 13 cells = 17 nodes; the paper draws the 13 cells.
        assert s27_graph.n_nodes == 17
        assert len(s27_graph.register_nodes()) == 3
        kinds = [s27_graph.kind(n) for n in s27_graph.nodes()]
        assert kinds.count(NodeKind.COMB) == 10

    def test_every_driven_read_signal_is_a_net(self, s27, s27_graph):
        fan = s27.fanout_map()
        for sig, readers in fan.items():
            if readers:
                assert s27_graph.has_net(sig)

    def test_multi_pin_fanout(self, s27_graph):
        # G11 fans out to G17 (NOT), G10 (NOR), and the DFF G6
        net = s27_graph.net("G11")
        assert set(net.sinks) == {"G17", "G10", "G6"}

    def test_net_source_equals_name(self, s27_graph):
        for net in s27_graph.nets():
            assert net.source == net.name


class TestPONodes:
    def test_po_nodes_added(self, s27):
        g = build_circuit_graph(s27, with_po_nodes=True)
        assert g.has_node("__po__G17")
        assert is_po_node("__po__G17")
        assert not is_po_node("G17")
        assert "__po__G17" in g.net("G17").sinks

    def test_without_po_nodes_output_only_net_absent(self, s27):
        g = build_circuit_graph(s27, with_po_nodes=False)
        # G17 drives only the PO; without PO sinks it has no net
        assert not g.has_net("G17")

    def test_kind_of_po_node_is_comb(self, s27):
        g = build_circuit_graph(s27, with_po_nodes=True)
        assert g.kind("__po__G17") is NodeKind.COMB


class TestPipelineGraph:
    def test_kinds_match_netlist(self, pipeline):
        g = build_circuit_graph(pipeline, with_po_nodes=False)
        assert g.kind("a") is NodeKind.INPUT
        assert g.kind("q1") is NodeKind.REGISTER
        assert g.kind("g1") is NodeKind.COMB

    def test_generated_circuit_builds(self, s510):
        g = build_circuit_graph(s510, with_po_nodes=False)
        assert len(g.register_nodes()) == 6
        assert g.n_nodes == s510.stats().n_inputs + len(s510)
