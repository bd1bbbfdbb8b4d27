"""Applying retiming vectors to netlists."""

import gc
import tracemalloc

import pytest

from repro.errors import IllegalRetimingError, RetimingError
from repro.netlist import GateType, Netlist
from repro.retiming import apply_retiming, solve_cut_retiming, trace_to_driver
from repro.graphs import build_circuit_graph


class TestTraceToDriver:
    def test_no_registers(self, pipeline):
        assert trace_to_driver(pipeline, "g1") == ("g1", 0)

    def test_through_one_register(self, pipeline):
        assert trace_to_driver(pipeline, "q1") == ("g1", 1)

    def test_through_chain(self):
        nl = Netlist("chain")
        nl.add_input("a")
        nl.add_dff("q1", "a")
        nl.add_dff("q2", "q1")
        nl.add_output("q2")
        assert trace_to_driver(nl, "q2") == ("a", 2)

    def test_register_ring_raises(self):
        nl = Netlist("ring")
        nl.add_input("a")
        nl._cells["q1"] = __import__(
            "repro.netlist.cells", fromlist=["Cell"]
        ).Cell("q1", GateType.DFF, ("q2",))
        nl._cells["q2"] = __import__(
            "repro.netlist.cells", fromlist=["Cell"]
        ).Cell("q2", GateType.DFF, ("q1",))
        with pytest.raises(RetimingError):
            trace_to_driver(nl, "q1")


class TestApply:
    def test_identity_preserves_structure(self, s27):
        rc = apply_retiming(s27, {})
        assert rc.n_registers_after == rc.n_registers_before == 3
        assert {c.output for c in rc.netlist.comb_cells()} == {
            c.output for c in s27.comb_cells()
        }
        rc.netlist.validate()

    def test_register_moved_backward(self, pipeline):
        """ρ(g2)=+1 moves g2's output register onto its input side."""
        rc = apply_retiming(pipeline, {"g2": 1})
        nl = rc.netlist
        # input side gains a register (2 total), output side loses its one
        assert trace_to_driver(nl, nl.cell("g2").inputs[0]) == ("g1", 2)
        pin = nl.cell("g3").inputs[0]
        assert trace_to_driver(nl, pin) == ("g2", 0)
        rc.netlist.validate()

    def test_illegal_lag_raises(self, pipeline):
        # ρ(g2)=-1 demands a register on the direct PI pin b -> g2
        with pytest.raises(IllegalRetimingError):
            apply_retiming(pipeline, {"g2": -1})

    def test_fanout_sharing(self, s27):
        """Fan-out branches with equal counts share one register chain."""
        rc = apply_retiming(s27, {})
        # G10 feeds only the DFF G5 in s27; after rebuild there is exactly
        # one register named G10__rt1
        assert rc.netlist.cell("G10__rt1").is_dff

    def test_cycle_counts_preserved(self, ring):
        """Corollary 2 on the rebuilt netlist (ρ(g1)=+1 is legal)."""
        rc = apply_retiming(ring, {"g1": 1})
        nl = rc.netlist
        # walk the ring: g1 -> ... -> g2 -> ... -> g1 counting registers
        d1, k1 = trace_to_driver(nl, nl.cell("g2").inputs[0])
        d2, k2 = trace_to_driver(nl, nl.cell("g1").inputs[1])
        assert d1 == "g1" and d2 == "g2"
        assert (k1, k2) == (0, 2)
        assert k1 + k2 == 2  # ring held 2 registers before retiming

    def test_branch_without_register_blocks_backward_move(self, ring):
        """ρ(g2)=+1 would need a register on the g2 -> tail branch too."""
        with pytest.raises(IllegalRetimingError):
            apply_retiming(ring, {"g2": 1})

    def test_po_latency_can_change(self, pipeline):
        rc = apply_retiming(pipeline, {"__po__g3": 1})
        po_sig = rc.po_map["g3"]
        assert trace_to_driver(rc.netlist, po_sig) == ("g3", 1)

    def test_solver_solution_applies(self, s27):
        g = build_circuit_graph(s27, with_po_nodes=True)
        sol = solve_cut_retiming(g, ["G9"])
        rc = apply_retiming(s27, sol.retiming.rho)
        rc.netlist.validate()
        # the covered cut net G9 now feeds its reader through >= 1 register
        reader_pin = rc.netlist.cell("G11").inputs[1]
        drv, k = trace_to_driver(rc.netlist, reader_pin)
        assert drv == "G9" and k >= 1


class TestMemoryShape:
    def test_transient_heap_stays_small_beside_the_result(self):
        """400 PIs at ρ = −50 feed 200 NAND POs: 20,000 shared registers.

        Building each fan-out chain once keeps the heap the call
        allocates and frees within a fifth of what its result retains.
        A second per-register map beside the chains would read about
        1.37.
        """
        nl = Netlist("wide")
        for i in range(400):
            nl.add_input(f"i{i}")
        for j in range(200):
            nl.add_gate(f"g{j}", GateType.NAND, (f"i{2 * j}", f"i{2 * j + 1}"))
            nl.add_output(f"g{j}")
        rho = {f"i{i}": -50 for i in range(400)}
        gc.collect()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            rc = apply_retiming(nl, rho)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rc.n_registers_after == 20_000
        assert peak - base <= 1.2 * (retained - base)
