"""Difference-constraint solving and cut-retiming feasibility."""

import pytest

from repro.errors import RetimingError
from repro.graphs import build_circuit_graph
from repro.netlist import GateType, Netlist
from repro.retiming import bellman_ford_constraints, solve_cut_retiming
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
        """Registers exist downstream; retiming can pull one onto g1's net."""
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
        """The ring holds 2 registers: at most 2 of 2 comb nets coverable."""
        sol = solve_cut_retiming(ring_graph, ["g1", "g2"])
        assert sol.covered_cuts == {"g1", "g2"}  # f(λ)=2 suffices

    def test_overfull_ring_drops_cuts(self):
        """One register on a 3-gate ring: only one cut coverable."""
        g = build_circuit_graph(_ring3_netlist(), with_po_nodes=False)
        sol = solve_cut_retiming(g, ["g1", "g2", "g3"])
        assert len(sol.covered_cuts) == 1
        assert len(sol.dropped_cuts) == 2
        sol.retiming.assert_legal()

    def test_coverage_metric(self, ring_graph):
        sol = solve_cut_retiming(ring_graph, ["g1"])
        assert sol.coverage == 1.0

    def test_empty_cut_set(self, ring_graph):
        sol = solve_cut_retiming(ring_graph, [])
        assert sol.covered_cuts == set()
        assert sol.retiming.legal()

    def test_s27_scc_cuts(self, s27):
        """s27 has 3 DFFs on its loops; 3 loop cuts are coverable."""
        g = build_circuit_graph(s27, with_po_nodes=True)
        sol = solve_cut_retiming(g, ["G9", "G10", "G12"])
        assert len(sol.covered_cuts) >= 2
        sol.retiming.assert_legal()

    def test_unconstrained_cut_reported_separately(self, pipeline):
        """A cut net heading no register-weighted edge is neither covered
        nor dropped — it lands in unconstrained_cuts and stays out of the
        coverage ratio."""
        g = build_circuit_graph(pipeline, with_po_nodes=True)
        sol = solve_cut_retiming(g, ["g1", "no_such_net"])
        assert sol.covered_cuts == {"g1"}
        assert sol.dropped_cuts == set()
        assert sol.unconstrained_cuts == {"no_such_net"}
        assert sol.coverage == 1.0

    def test_unconstrained_matches_reference(self, pipeline):
        from repro.retiming import solve_cut_retiming_reference

        g = build_circuit_graph(pipeline, with_po_nodes=True)
        compiled = solve_cut_retiming(g, ["g1", "dangling_x"])
        reference = solve_cut_retiming_reference(g, ["g1", "dangling_x"])
        assert compiled.unconstrained_cuts == reference.unconstrained_cuts
        assert compiled.covered_cuts == reference.covered_cuts


class TestConvergenceGuard:
    @pytest.mark.parametrize("use_compiled", [True, False])
    def test_tiny_max_iterations_raises_with_diagnostics(self, use_compiled):
        """The overfull ring needs 3 rounds (2 drops); max_iterations=1
        must abort after the first drop with a diagnostic message."""
        g = build_circuit_graph(_ring3_netlist(), with_po_nodes=False)
        with pytest.raises(RetimingError) as exc:
            solve_cut_retiming(
                g,
                ["g1", "g2", "g3"],
                max_iterations=1,
                use_compiled=use_compiled,
            )
        msg = str(exc.value)
        assert "failed to converge after 1" in msg
        assert "1 cuts dropped" in msg
        assert "requirements remaining" in msg

    def test_generous_budget_converges(self):
        g = build_circuit_graph(_ring3_netlist(), with_po_nodes=False)
        sol = solve_cut_retiming(g, ["g1", "g2", "g3"], max_iterations=3)
        assert sol.iterations == 3


class TestSolverSwitch:
    def test_unknown_solver_rejected(self, ring_graph):
        # "jacobi" and "spfa" were retired feasibility-kernel switches
        for solver in ("simplex", "jacobi", "spfa"):
            with pytest.raises(ValueError):
                solve_cut_retiming(ring_graph, ["g1"], solver=solver)

    @pytest.mark.parametrize("solver", ["auto", "reference"])
    def test_exact_backends_bit_identical(self, solver):
        g = build_circuit_graph(_ring3_netlist(), with_po_nodes=False)
        base = solve_cut_retiming(g, ["g1", "g2", "g3"], use_compiled=False)
        sol = solve_cut_retiming(g, ["g1", "g2", "g3"], solver=solver)
        assert sol.retiming.rho == base.retiming.rho
        assert sol.covered_cuts == base.covered_cuts
        assert sol.dropped_cuts == base.dropped_cuts
        assert sol.iterations == base.iterations

    def test_mcf_backend_legal_and_covers(self):
        g = build_circuit_graph(_ring3_netlist(), with_po_nodes=False)
        sol = solve_cut_retiming(g, ["g1", "g2", "g3"], solver="mcf")
        sol.retiming.assert_legal()
        # min total slack on a 1-register 3-cut ring is 2: one covered
        assert len(sol.covered_cuts) == 1
        assert len(sol.dropped_cuts) == 2
        for net in sol.covered_cuts:
            for i, e in enumerate(sol.retiming.edges):
                if e.via_nets[0] == net:
                    assert retimed_weight(e, sol.retiming.rho) >= 1

    def test_mcf_matches_exact_on_feasible(self, pipeline):
        g = build_circuit_graph(pipeline, with_po_nodes=True)
        exact = solve_cut_retiming(g, ["g1", "g2"])
        mcf = solve_cut_retiming(g, ["g1", "g2"], solver="mcf")
        assert mcf.covered_cuts == exact.covered_cuts
        assert mcf.dropped_cuts == exact.dropped_cuts == set()
