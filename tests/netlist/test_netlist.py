"""Netlist container: construction, queries, validation, stats."""

import pytest

from repro.errors import NetlistError
from repro.netlist import Cell, GateType, Netlist


@pytest.fixture
def toy():
    nl = Netlist("toy")
    nl.add_input("a")
    nl.add_input("b")
    nl.add_gate("g", GateType.NAND, ["a", "b"])
    nl.add_dff("q", "g")
    nl.add_gate("inv", GateType.NOT, ["q"])
    nl.add_output("inv")
    return nl


class TestConstruction:
    def test_duplicate_input_rejected(self, toy):
        with pytest.raises(NetlistError):
            toy.add_input("a")

    def test_duplicate_driver_rejected(self, toy):
        with pytest.raises(NetlistError):
            toy.add_gate("g", GateType.AND, ["a", "b"])

    def test_cell_cannot_shadow_input(self, toy):
        with pytest.raises(NetlistError):
            toy.add_gate("a", GateType.NOT, ["b"])

    def test_add_dff_via_add_gate_rejected(self, toy):
        with pytest.raises(NetlistError):
            toy.add_gate("q2", GateType.DFF, ["g"])

    def test_duplicate_output_rejected(self, toy):
        with pytest.raises(NetlistError):
            toy.add_output("inv")

    def test_replace_cell_requires_existing(self, toy):
        with pytest.raises(NetlistError):
            toy.replace_cell(Cell("nope", GateType.NOT, ("a",)))

    def test_remove_cell_returns_it(self, toy):
        cell = toy.remove_cell("inv")
        assert cell.gtype is GateType.NOT
        with pytest.raises(NetlistError):
            toy.cell("inv")


class TestQueries:
    def test_driver_of_input_is_none(self, toy):
        assert toy.driver("a") is None

    def test_driver_of_gate(self, toy):
        assert toy.driver("g").gtype is GateType.NAND

    def test_unknown_signal_raises(self, toy):
        with pytest.raises(NetlistError):
            toy.driver("zzz")

    def test_contains(self, toy):
        assert "a" in toy and "q" in toy and "zzz" not in toy

    def test_fanout_map(self, toy):
        fan = toy.fanout_map()
        assert [c.output for c in fan["g"]] == ["q"]
        assert [c.output for c in fan["q"]] == ["inv"]
        assert fan["inv"] == []

    def test_signals_order(self, toy):
        sigs = list(toy.signals())
        assert sigs[:2] == ["a", "b"]
        assert set(sigs) == {"a", "b", "g", "q", "inv"}

    def test_len_counts_cells(self, toy):
        assert len(toy) == 3

    def test_dff_and_comb_iterators(self, toy):
        assert [c.output for c in toy.dff_cells()] == ["q"]
        assert {c.output for c in toy.comb_cells()} == {"g", "inv"}


class TestValidation:
    def test_valid_circuit_passes(self, toy):
        toy.validate()

    def test_undriven_input_detected(self):
        nl = Netlist("bad")
        nl.add_input("a")
        nl.add_gate("g", GateType.NAND, ["a", "ghost"])
        nl.add_output("g")
        with pytest.raises(NetlistError, match="ghost"):
            nl.validate()

    def test_undriven_output_detected(self):
        nl = Netlist("bad")
        nl.add_input("a")
        nl.add_output("ghost")
        with pytest.raises(NetlistError, match="ghost"):
            nl.validate()

    def test_no_inputs_detected(self):
        nl = Netlist("empty")
        with pytest.raises(NetlistError, match="no primary inputs"):
            nl.validate()

    def test_no_outputs_detected(self):
        nl = Netlist("noout")
        nl.add_input("a")
        nl.add_gate("g", GateType.NOT, ["a"])
        with pytest.raises(NetlistError, match="no primary outputs"):
            nl.validate()

    def test_combinational_cycle_detected(self):
        nl = Netlist("loop")
        nl.add_input("a")
        nl.add_gate("x", GateType.NAND, ["a", "y"])
        nl.add_gate("y", GateType.NAND, ["a", "x"])
        nl.add_output("y")
        with pytest.raises(NetlistError, match="combinational cycle"):
            nl.validate()

    def test_cycle_through_dff_is_fine(self, s27):
        s27.validate()  # s27 has feedback, all through DFFs

    def test_self_feeding_gate_detected(self):
        nl = Netlist("selfloop")
        nl.add_input("a")
        nl.add_gate("x", GateType.NAND, ["a", "x"])
        nl.add_output("x")
        with pytest.raises(NetlistError, match="combinational cycle"):
            nl.validate()


class TestTopologicalOrder:
    def test_order_respects_dependencies(self, s27):
        order = s27.topological_comb_order()
        pos = {c.output: i for i, c in enumerate(order)}
        for cell in order:
            for sig in cell.inputs:
                if sig in pos:  # combinational fan-in
                    assert pos[sig] < pos[cell.output]

    def test_order_covers_all_comb_cells(self, s27):
        order = s27.topological_comb_order()
        assert len(order) == 10


class TestStats:
    def test_s27_stats(self, s27):
        s = s27.stats()
        assert (s.n_inputs, s.n_dffs, s.n_gates, s.n_inverters) == (4, 3, 8, 2)

    def test_s27_area(self, s27):
        # 3 DFF (30) + 2 INV (2) + 1 AND (3) + 2 OR (6) + 1 NAND (2)
        # + 4 NOR (8) = 51
        assert s27.stats().area_units == 51

    def test_copy_is_independent(self, toy):
        dup = toy.copy()
        dup.add_gate("extra", GateType.NOT, ["a"])
        assert "extra" in dup
        assert "extra" not in toy
        assert dup.name == toy.name
