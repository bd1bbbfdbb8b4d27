"""Saturate_Network (Table 3) and the congestion distance function."""

import math
import random
import sys

import pytest

from repro.circuits import load_circuit
from repro.config import MercedConfig
from repro.core.merced import Merced
from repro.flow import (
    FlowIndex,
    distance_levels,
    exp_distance,
    inject_flow,
    saturate_network,
    update_distance,
)
from repro.graphs import (
    CircuitGraph,
    NodeKind,
    build_circuit_graph,
    compile_graph,
    dijkstra_tree,
)


class TestDistanceFunction:
    def test_exponential_form(self, s27_graph):
        net = s27_graph.net("G11")
        net.flow = 0.5
        net.cap = 1.0
        assert update_distance(net, alpha=4.0) == pytest.approx(math.exp(2.0))

    def test_inject_accumulates(self, s27_graph):
        net = s27_graph.net("G11")
        inject_flow(net, delta=0.01, alpha=4.0)
        inject_flow(net, delta=0.01, alpha=4.0)
        assert net.flow == pytest.approx(0.02)
        assert net.dist == pytest.approx(math.exp(0.08))

    def test_overflow_gives_largest_finite_float(self):
        """Not inf: Make_Group's first grouping cuts only d >= inf."""
        assert exp_distance(709.0) == math.exp(709.0)
        assert exp_distance(710.0) == sys.float_info.max

    def test_distance_levels_sorted_desc(self, s27_graph):
        for i, net in enumerate(s27_graph.nets()):
            net.dist = float(i % 3)
        levels = distance_levels(s27_graph)
        assert levels == sorted(levels, reverse=True)
        assert len(levels) == len(set(levels))


class TestFlowIndex:
    """The indexed hot loop agrees with the string-keyed references."""

    @pytest.mark.parametrize("name", ["s27", "s510", "s641"])
    def test_trees_and_injections_match_reference(self, name):
        cfg = MercedConfig()
        graph = build_circuit_graph(load_circuit(name), with_po_nodes=False)
        graph.reset_flow_state(cap=cfg.cap)
        index = FlowIndex(compile_graph(graph))
        nets = [graph.net(net_name) for net_name in index.net_names]
        nodes = list(graph.nodes())
        rng = random.Random(1996)
        for _ in range(60):
            source = rng.choice(nodes)
            tree, _ = index.tree_nets_from(source)
            reference = dijkstra_tree(graph, source).tree_nets()
            assert len(tree) == len(set(tree))
            assert {index.net_names[i] for i in tree} == set(reference)
            index.inject(tree, cfg.delta, cfg.alpha)
            for net_name in reference:
                inject_flow(graph.net(net_name), cfg.delta, cfg.alpha)
            assert index.flow == [net.flow for net in nets]
            assert index.dist == [net.dist for net in nets]

    def test_overflowing_net_matches_reference(self):
        graph = build_circuit_graph(load_circuit("s27"), with_po_nodes=False)
        graph.reset_flow_state()
        index = FlowIndex(compile_graph(graph))
        nets = [graph.net(net_name) for net_name in index.net_names]
        # α·flow/cap: 400 after the first injection, 800 (past exp's
        # double range) after the second
        for _ in range(2):
            index.inject([0], 100.0, 4.0)
            inject_flow(nets[0], 100.0, 4.0)
        assert nets[0].dist == sys.float_info.max
        assert index.flow == [net.flow for net in nets]
        assert index.dist == [net.dist for net in nets]
        for source in graph.nodes():
            tree, _ = index.tree_nets_from(source)
            reference = dijkstra_tree(graph, source).tree_nets()
            assert {index.net_names[i] for i in tree} == set(reference)


class TestSaturation:
    def test_visit_fairness(self, s27_graph):
        cfg = MercedConfig(min_visit=3, seed=11)
        result = saturate_network(s27_graph, cfg)
        assert all(v >= 3 for v in result.visit.values())
        assert result.n_sources == sum(result.visit.values())

    def test_flow_resets_between_runs(self, s27_graph):
        cfg = MercedConfig(min_visit=2, seed=5)
        r1 = saturate_network(s27_graph, cfg)
        r2 = saturate_network(s27_graph, cfg)
        assert r1.total_flow == pytest.approx(r2.total_flow)

    def test_determinism(self, s27_graph):
        cfg = MercedConfig(min_visit=3, seed=99)
        r1 = saturate_network(s27_graph, cfg)
        d1 = {n.name: n.dist for n in s27_graph.nets()}
        saturate_network(s27_graph, cfg)
        d2 = {n.name: n.dist for n in s27_graph.nets()}
        assert d1 == d2

    def test_scc_nets_more_congested(self, s27_graph):
        """Figure 5: nets in the feedback core absorb the most flow."""
        from repro.graphs import SCCIndex

        idx = SCCIndex(s27_graph)
        saturate_network(s27_graph, MercedConfig(min_visit=10, seed=3))
        on = [n.flow for n in s27_graph.nets() if idx.net_on_scc(n.name)]
        off = [n.flow for n in s27_graph.nets() if not idx.net_on_scc(n.name)]
        assert on and off
        assert max(on) > max(off)

    def test_compiles_past_exp_overflow(self, s27_graph):
        """Δ = 20 drives α·flow/cap past exp's double range on s27."""
        config = MercedConfig(lk=3, seed=7, delta=20.0)
        result = saturate_network(s27_graph, config)
        assert result.max_dist == sys.float_info.max
        report = Merced(config).run(load_circuit("s27"))
        assert all(c.input_count <= 3 for c in report.partition.clusters)

    def test_max_sources_cap(self, s27_graph):
        cfg = MercedConfig(min_visit=20, seed=1, max_sources=10)
        result = saturate_network(s27_graph, cfg)
        assert result.n_sources == 10

    def test_summary_stats_consistent(self, s27_graph):
        result = saturate_network(s27_graph, MercedConfig(min_visit=2, seed=0))
        flows = [n.flow for n in s27_graph.nets()]
        assert result.total_flow == pytest.approx(sum(flows))
        assert result.max_flow == pytest.approx(max(flows))
        assert result.mean_visit >= 2

    def test_average_flow_bound_guidance(self):
        assert MercedConfig().average_flow_bound_ok  # 20 × 0.01 ≤ 1
        assert not MercedConfig(min_visit=200, delta=0.01).average_flow_bound_ok
