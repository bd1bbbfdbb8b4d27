"""Difference-constraint solving and the least-area cut retiming."""

import pytest

from repro.errors import RetimingError
from repro.graphs import build_circuit_graph
from repro.graphs.paths import WeightedEdge, register_weighted_edges
from repro.netlist import GateType, Netlist, parse_bench
from repro.retiming import (
    bellman_ford_constraints,
    solve_cut_retiming,
    solve_cut_retiming_reference,
    verify_drop_set,
)
from repro.retiming.model import retimed_weight


def _ring3_netlist():
    """One register on a 3-gate ring: at most one of three cuts coverable."""
    nl = Netlist("ring3")
    nl.add_input("a")
    nl.add_gate("g1", GateType.NAND, ["a", "q"])
    nl.add_gate("g2", GateType.NOT, ["g1"])
    nl.add_gate("g3", GateType.NOT, ["g2"])
    nl.add_dff("q", "g3")
    nl.add_output("g3")
    nl.validate()
    return nl


class TestBellmanFord:
    def test_feasible_system(self):
        # x_a - x_b <= 1 ; x_b - x_a <= 2
        sol, cyc = bellman_ford_constraints(
            ["a", "b"], [("a", "b", 1), ("b", "a", 2)]
        )
        assert cyc is None
        assert sol["a"] - sol["b"] <= 1
        assert sol["b"] - sol["a"] <= 2

    def test_infeasible_negative_cycle(self):
        sol, cyc = bellman_ford_constraints(
            ["a", "b"], [("a", "b", -1), ("b", "a", 0)]
        )
        assert sol is None
        assert sorted(cyc) == [0, 1]

    def test_trivial_empty(self):
        sol, cyc = bellman_ford_constraints(["a"], [])
        assert sol == {"a": 0}
        assert cyc is None


class TestCutRetiming:
    def test_pipeline_cut_coverable(self, pipeline):
        """Registers exist downstream; retiming pulls one onto g1's net,
        which saves a MUXed A_CELL and adds no register."""
        g = build_circuit_graph(pipeline, with_po_nodes=True)
        sol = solve_cut_retiming(g, ["g1"])
        assert sol.covered_cuts == {"g1"}
        assert not sol.dropped_cuts
        # every edge corresponding to the cut holds >= 1 register
        for i, e in enumerate(sol.retiming.edges):
            if e.via_nets[0] == "g1":
                assert retimed_weight(e, sol.retiming.rho) >= 1

    def test_solution_is_legal(self, pipeline):
        g = build_circuit_graph(pipeline, with_po_nodes=True)
        sol = solve_cut_retiming(g, ["g1", "g2"])
        sol.retiming.assert_legal()

    def test_ring_budget_respected(self, ring_graph):
        """The ring holds 2 registers: both comb nets are covered by
        moving them, with no register added."""
        sol = solve_cut_retiming(ring_graph, ["g1", "g2"])
        assert sol.covered_cuts == {"g1", "g2"}  # f(λ)=2 suffices
        assert sol.registers == 2

    def test_overfull_ring_drops_cuts(self):
        """One register on a 3-gate ring: only one cut coverable."""
        g = build_circuit_graph(_ring3_netlist(), with_po_nodes=False)
        sol = solve_cut_retiming(g, ["g1", "g2", "g3"])
        assert len(sol.covered_cuts) == 1
        assert len(sol.dropped_cuts) == 2
        sol.retiming.assert_legal()

    def test_empty_cut_set(self, ring_graph):
        sol = solve_cut_retiming(ring_graph, [])
        assert sol.covered_cuts == set()
        sol.retiming.assert_legal()

    def test_s27_scc_cuts(self, s27):
        """s27 has 3 DFFs on its loops; 3 loop cuts are coverable."""
        g = build_circuit_graph(s27, with_po_nodes=True)
        sol = solve_cut_retiming(g, ["G9", "G10", "G12"])
        assert len(sol.covered_cuts) >= 2
        sol.retiming.assert_legal()

    def test_unconstrained_cut_reported_separately(self, pipeline):
        """A cut net heading no register-weighted edge is neither covered
        nor dropped — it lands in unconstrained_cuts."""
        g = build_circuit_graph(pipeline, with_po_nodes=True)
        sol = solve_cut_retiming(g, ["g1", "no_such_net"])
        assert sol.covered_cuts == {"g1"}
        assert sol.dropped_cuts == set()
        assert sol.unconstrained_cuts == {"no_such_net"}

    def test_unconstrained_matches_reference(self, pipeline):
        g = build_circuit_graph(pipeline, with_po_nodes=True)
        compiled = solve_cut_retiming(g, ["g1", "dangling_x"])
        reference = solve_cut_retiming_reference(g, ["g1", "dangling_x"])
        assert compiled.unconstrained_cuts == reference.unconstrained_cuts
        assert compiled.covered_cuts == reference.covered_cuts


class TestExactCoverage:
    def test_five_gate_counterexample_covers_two(self):
        """A greedy victim-drop loop kept only g2 here; the least-area
        lags retime the loop's one register forward through g0 and g1
        (both read q0): one more register (10 units) covers both (28
        units saved), and g2 stays dropped."""
        nl = parse_bench(
            "INPUT(pi0)\nOUTPUT(g8)\n"
            "g0 = OR(q0, pi0)\ng1 = XOR(pi0, q0)\ng2 = OR(g1, g0)\n"
            "g8 = NAND(g0, g2)\nq0 = DFF(g8)\n",
            name="counterexample",
        )
        g = build_circuit_graph(nl, with_po_nodes=True)
        for solve in (solve_cut_retiming, solve_cut_retiming_reference):
            sol = solve(g, ["g0", "g1", "g2"])
            assert sol.covered_cuts == {"g0", "g1"}
            assert sol.dropped_cuts == {"g2"}
            assert verify_drop_set(g, ["g0", "g1", "g2"], sol) is None

    def test_reference_bit_identical(self, s27):
        g = build_circuit_graph(s27, with_po_nodes=True)
        cuts = sorted({e.via_nets[0] for e in register_weighted_edges(g)})
        for pin_io in (False, True):
            sol = solve_cut_retiming(g, cuts, pin_io=pin_io)
            ref = solve_cut_retiming_reference(g, cuts, pin_io=pin_io)
            assert sol.retiming.rho == ref.retiming.rho
            assert sol.registers == ref.registers
            assert sol.covered_cuts == ref.covered_cuts
            assert sol.dropped_cuts == ref.dropped_cuts
            assert sol.unconstrained_cuts == ref.unconstrained_cuts


class TestConvergenceGuard:
    def test_negative_weight_cycle_raises(self):
        """An edge list no circuit can produce (a cycle of negative
        weight) makes the unretimed lags illegal; both solvers reject
        the edge up front with a typed error instead of a hang."""
        edges = [
            WeightedEdge("a", "b", -1, ("a",)),
            WeightedEdge("b", "a", 0, ("b",)),
        ]
        for solve in (solve_cut_retiming, solve_cut_retiming_reference):
            with pytest.raises(RetimingError, match="negative register"):
                solve(None, ["a"], edges=edges)
