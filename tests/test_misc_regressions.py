"""Miscellaneous cross-cutting regressions and edge cases."""

import pytest

from repro import Merced, MercedConfig, load_circuit
from repro.config import DEFAULT_CONFIG
from repro.flow import saturate_network
from repro.graphs import SCCIndex, build_circuit_graph, compile_graph
from repro.partition import CutState, make_group
from repro.retiming import solve_cut_retiming


class TestForcedNetsExcludedFromLevels:
    def test_zeroed_distances_not_boundaries(self, ring_graph):
        """Nets pinned to d=0 by budget exhaustion never become cut
        boundaries in later rounds (Table 7 STEP 2.1.2.1 semantics)."""
        idx = SCCIndex(ring_graph)
        state = CutState(ring_graph, idx, beta=1)
        state.scc_cuts[0] = 99  # force exhaustion
        cg = compile_graph(ring_graph)
        cg.dist[cg.net_id["g1"]] = 7.0
        assert state.traversable(ring_graph.net("g1"), boundary=5.0)
        assert cg.dist[cg.net_id["g2"]] == 0.0
        # pinned nets stay traversable at any boundary
        assert state.traversable(ring_graph.net("g2"), boundary=0.0)


class TestSaturationLevels:
    def test_levels_reflect_saturation(self, s27_graph):
        saturate_network(s27_graph, MercedConfig(min_visit=4, seed=2))
        levels = sorted(set(compile_graph(s27_graph).dist), reverse=True)
        assert levels[0] > levels[-1] >= 1.0  # exp(0)=1 minimum


class TestMercedReportConsistency:
    @pytest.fixture(scope="class")
    def report(self):
        return Merced(MercedConfig(lk=3, seed=7)).run_named("s27")

    def test_cut_counts_agree_between_views(self, report):
        assert report.area.n_cut_nets == len(report.partition.cut_nets())
        assert report.row.n_cut_nets == report.area.n_cut_nets

    def test_plan_widths_bounded_by_lk(self, report):
        for a in report.plan.assignments:
            assert a.width <= report.config.lk

    def test_retimable_bounded(self, report):
        assert 0 <= report.area.n_retimable <= report.area.n_cut_nets

    def test_cost_at_least_type_minimum(self, report):
        from repro.cbit import PAPER_CBIT_TYPES

        assert report.cost_dff >= PAPER_CBIT_TYPES[0].area_dff


class TestSeedSensitivity:
    def test_different_seeds_give_valid_partitions(self):
        for seed in (1, 2, 3):
            r = Merced(MercedConfig(lk=3, seed=seed)).run_named("s27")
            r.partition.validate()
            assert r.partition.max_input_count() <= 3

    def test_default_config_is_papers(self):
        assert (DEFAULT_CONFIG.min_visit, DEFAULT_CONFIG.alpha) == (20, 4.0)
        assert (DEFAULT_CONFIG.delta, DEFAULT_CONFIG.beta) == (0.01, 50)


class TestSolverOnPipelines:
    def test_deep_pipeline_moves_registers_far(self):
        """A register can be retimed across many stages."""
        from repro.netlist import GateType, Netlist

        nl = Netlist("deep")
        nl.add_input("a")
        prev = "a"
        for i in range(6):
            nl.add_gate(f"g{i}", GateType.NOT, [prev])
            prev = f"g{i}"
        nl.add_dff("q", prev)
        nl.add_gate("out", GateType.BUF, ["q"])
        nl.add_output("out")
        nl.validate()
        g = build_circuit_graph(nl, with_po_nodes=True)
        # want the register on the very first net instead of the last
        sol = solve_cut_retiming(g, ["g0"])
        assert "g0" in sol.covered_cuts
        from repro.retiming import apply_retiming, trace_to_driver

        rc = apply_retiming(nl, sol.retiming.rho)
        drv, k = trace_to_driver(rc.netlist, rc.netlist.cell("g1").inputs[0])
        assert (drv, k) == ("g0", 1)


class TestGeneratorStressShapes:
    @pytest.mark.parametrize("name", ["s713", "s820", "s832", "s838.1"])
    def test_remaining_profiles_generate(self, name):
        nl = load_circuit(name)
        from repro.circuits import profile_by_name

        p = profile_by_name(name)
        s = nl.stats()
        assert s.area_units == p.paper_area
        assert s.n_dffs == p.n_dffs
