"""Table 12 area accounting."""

import pytest

from repro.circuits import load_circuit
from repro.config import MercedConfig
from repro.core import (
    CBITAreaComparison,
    compare_cbit_area,
    compile_circuit,
    count_retimable_cuts,
)
from repro.graphs import SCCIndex, build_circuit_graph
from repro.partition import assign_cbit, make_group


def comparison(**overrides):
    base = dict(
        circuit="test",
        lk=16,
        circuit_area_units=1000,
        n_cut_nets=10,
        n_cut_nets_on_scc=6,
        n_retimable=8,
    )
    base.update(overrides)
    return CBITAreaComparison(**base)


class TestArithmetic:
    def test_with_retiming_area(self):
        c = comparison()
        # 8 × 9 + 2 × 23 = 118 units
        assert c.cbit_area_with_retiming_units == 118
        assert c.n_excess == 2

    def test_without_retiming_area(self):
        assert comparison().cbit_area_without_retiming_units == 230

    def test_percentages(self):
        c = comparison()
        assert c.pct_with_retiming == pytest.approx(100 * 118 / 1118)
        assert c.pct_without_retiming == pytest.approx(100 * 230 / 1230)
        assert c.saving_points == pytest.approx(
            c.pct_without_retiming - c.pct_with_retiming
        )

    def test_relative_reduction(self):
        c = comparison()
        assert c.relative_area_reduction == pytest.approx(100 * 112 / 230)

    def test_zero_cuts(self):
        c = comparison(n_cut_nets=0, n_cut_nets_on_scc=0, n_retimable=0)
        assert c.pct_with_retiming == 0.0
        assert c.pct_without_retiming == 0.0
        assert c.relative_area_reduction == 0.0

    def test_retiming_never_worse(self):
        for retimable in range(11):
            c = comparison(n_retimable=retimable)
            assert c.pct_with_retiming <= c.pct_without_retiming


class TestRetimableCount:
    def test_scc_budget_method(self, ring_graph):
        idx = SCCIndex(ring_graph)
        # both ring nets cut; f(λ)=2 covers both
        assert count_retimable_cuts(idx, ["g1", "g2"]) == 2

    def test_off_scc_cut_retimable(self, pipeline):
        g = build_circuit_graph(pipeline, with_po_nodes=False)
        idx = SCCIndex(g)
        assert count_retimable_cuts(idx, ["g1"]) == 1

    def test_excess_capped_by_f(self, ring_graph):
        idx = SCCIndex(ring_graph)
        idx.sccs()[0].__dict__["register_count"] = 1
        assert count_retimable_cuts(idx, ["g1", "g2"]) == 1

    def test_solver_method(self):
        # the exact count: covered plus unconstrained cuts of
        # compile_circuit's one solve, on the report's Table 12 row
        arts = compile_circuit(load_circuit("s27"), MercedConfig(lk=3))
        exact = arts.exact_area
        assert exact.n_retimable == 2
        assert exact.n_retimable == len(arts.retiming.covered_cuts) + len(
            arts.retiming.unconstrained_cuts
        )
        assert exact.n_cut_nets == arts.report.area.n_cut_nets
        assert exact.circuit_area_units == arts.report.area.circuit_area_units


class TestCompareOnCircuit:
    def test_s27_comparison(self, s27, s27_graph, s27_scc):
        res = make_group(s27_graph, s27_scc, MercedConfig(lk=3, seed=7))
        merged = assign_cbit(res.partition)
        cuts = merged.partition.cut_nets()
        comp = compare_cbit_area(
            "s27", 3, s27.stats().area_units, cuts, s27_scc
        )
        assert comp.n_cut_nets == len(cuts)
        assert comp.n_retimable <= comp.n_cut_nets
        assert comp.pct_with_retiming < comp.pct_without_retiming

    def test_solver_vs_budget_agree_on_s27(self, s27):
        arts = compile_circuit(s27, MercedConfig(lk=3, seed=7))
        budget = arts.report.area.n_retimable
        exact = arts.exact_area.n_retimable
        # the budget estimate can be optimistic but not by much on s27
        assert abs(budget - exact) <= 1
