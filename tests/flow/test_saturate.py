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
    exp_distance,
    inject_flow,
    saturate_network,
    update_distance,
)
from repro.graphs import build_circuit_graph, compile_graph, dijkstra_tree


class TestDistanceFunction:
    def test_exponential_form(self):
        flow, dist = {"G11": 0.5}, {"G11": 1.0}
        d = update_distance(flow, dist, "G11", alpha=4.0, cap=1.0)
        assert d == dist["G11"] == pytest.approx(math.exp(2.0))

    def test_inject_accumulates(self):
        flow, dist = {"G11": 0.0}, {"G11": 1.0}
        inject_flow(flow, dist, "G11", delta=0.01, alpha=4.0, cap=1.0)
        inject_flow(flow, dist, "G11", delta=0.01, alpha=4.0, cap=1.0)
        assert flow["G11"] == pytest.approx(0.02)
        assert dist["G11"] == pytest.approx(math.exp(0.08))

    def test_overflow_gives_largest_finite_float(self):
        """Not inf: Make_Group's first grouping cuts only d >= inf."""
        assert exp_distance(709.0) == math.exp(709.0)
        assert exp_distance(710.0) == sys.float_info.max


class TestFlowIndex:
    """The indexed hot loop agrees with the string-keyed references.

    The references run on name-keyed dicts owned by the test, so they
    share no state with the compiled view the index writes.
    """

    @pytest.mark.parametrize("name", ["s27", "s510", "s641"])
    def test_trees_and_injections_match_reference(self, name):
        cfg = MercedConfig()
        graph = build_circuit_graph(load_circuit(name), with_po_nodes=False)
        cg = compile_graph(graph)
        index = FlowIndex(cg)
        flow = dict.fromkeys(cg.net_names, 0.0)
        dist = dict.fromkeys(cg.net_names, 1.0)
        nodes = list(graph.nodes())
        rng = random.Random(1996)
        for _ in range(60):
            source = rng.choice(nodes)
            tree, _ = index.tree_nets_from(source)
            reference = dijkstra_tree(graph, source, dist).tree_nets()
            assert len(tree) == len(set(tree))
            assert {cg.net_names[i] for i in tree} == set(reference)
            index.inject(tree, cfg.delta, cfg.alpha, cfg.cap)
            for net_name in reference:
                inject_flow(
                    flow, dist, net_name, cfg.delta, cfg.alpha, cfg.cap
                )
            assert cg.flow == [flow[n] for n in cg.net_names]
            assert cg.dist == [dist[n] for n in cg.net_names]

    def test_overflowing_net_matches_reference(self):
        graph = build_circuit_graph(load_circuit("s27"), with_po_nodes=False)
        cg = compile_graph(graph)
        index = FlowIndex(cg)
        flow = dict.fromkeys(cg.net_names, 0.0)
        dist = dict.fromkeys(cg.net_names, 1.0)
        first = cg.net_names[0]
        # α·flow/cap: 400 after the first injection, 800 (past exp's
        # double range) after the second
        for _ in range(2):
            index.inject([0], 100.0, 4.0, 1.0)
            inject_flow(flow, dist, first, 100.0, 4.0, 1.0)
            assert cg.flow == [flow[n] for n in cg.net_names]
            assert cg.dist == [dist[n] for n in cg.net_names]
        assert cg.dist[0] == sys.float_info.max
        for source in graph.nodes():
            tree, _ = index.tree_nets_from(source)
            reference = dijkstra_tree(graph, source, dist).tree_nets()
            assert {cg.net_names[i] for i in tree} == set(reference)


class TestSaturation:
    def test_visit_fairness(self, s27_graph):
        cfg = MercedConfig(min_visit=3, seed=11)
        result = saturate_network(s27_graph, cfg)
        assert all(v >= 3 for v in result.visit.values())
        assert result.n_sources == sum(result.visit.values())

    def test_flow_resets_between_runs(self, s27_graph):
        cfg = MercedConfig(min_visit=2, seed=5)
        cg = compile_graph(s27_graph)
        saturate_network(s27_graph, cfg)
        first = list(cg.flow)
        saturate_network(s27_graph, cfg)
        assert max(first) > 0.0
        assert cg.flow == first

    def test_determinism(self, s27_graph):
        cfg = MercedConfig(min_visit=3, seed=99)
        saturate_network(s27_graph, cfg)
        d1 = list(compile_graph(s27_graph).dist)
        saturate_network(s27_graph, cfg)
        d2 = list(compile_graph(s27_graph).dist)
        assert d1 == d2

    def test_scc_nets_more_congested(self, s27_graph):
        """Figure 5: nets in the feedback core absorb the most flow."""
        from repro.graphs import SCCIndex

        idx = SCCIndex(s27_graph)
        saturate_network(s27_graph, MercedConfig(min_visit=10, seed=3))
        cg = compile_graph(s27_graph)
        flows = dict(zip(cg.net_names, cg.flow))
        on = [f for name, f in flows.items() if idx.net_on_scc(name)]
        off = [f for name, f in flows.items() if not idx.net_on_scc(name)]
        assert on and off
        assert max(on) > max(off)

    def test_compiles_past_exp_overflow(self, s27_graph):
        """Δ = 20 drives α·flow/cap past exp's double range on s27."""
        config = MercedConfig(lk=3, seed=7, delta=20.0)
        saturate_network(s27_graph, config)
        assert max(compile_graph(s27_graph).dist) == sys.float_info.max
        report = Merced(config).run(load_circuit("s27"))
        assert all(c.input_count <= 3 for c in report.partition.clusters)

    def test_max_sources_cap(self, s27_graph):
        cfg = MercedConfig(min_visit=20, seed=1, max_sources=10)
        result = saturate_network(s27_graph, cfg)
        assert result.n_sources == 10

