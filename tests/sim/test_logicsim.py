"""Parallel-pattern combinational simulation."""

import pytest

from repro.errors import SimulationError
from repro.netlist import GateType, Netlist
from repro.sim import CombSimulator, levelize, pack_patterns


@pytest.fixture
def mux_circuit():
    """out = a·s + b·s' built from NAND/NOT primitives."""
    nl = Netlist("mux")
    for pi in ("a", "b", "s"):
        nl.add_input(pi)
    nl.add_gate("ns", GateType.NOT, ["s"])
    nl.add_gate("t1", GateType.NAND, ["a", "s"])
    nl.add_gate("t2", GateType.NAND, ["b", "ns"])
    nl.add_gate("out", GateType.NAND, ["t1", "t2"])
    nl.add_output("out")
    nl.validate()
    return nl


class TestLevelize:
    def test_levels(self, mux_circuit):
        lv = levelize(mux_circuit)
        assert lv.level["a"] == 0
        assert lv.level["ns"] == 1
        assert lv.level["t2"] == 2
        assert lv.level["out"] == 3
        assert lv.depth == 3

    def test_dff_outputs_level_zero(self, s27):
        lv = levelize(s27)
        assert lv.level["G5"] == 0
        assert lv.level["G6"] == 0

    def test_order_length(self, s27):
        assert len(levelize(s27).order) == 10


class TestCombSim:
    def test_mux_truth_table(self, mux_circuit):
        sim = CombSimulator(mux_circuit)
        # 8 patterns: exhaustive over a,b,s
        inputs = {"a": 0, "b": 0, "s": 0}
        for i in range(8):
            a, b, s = i & 1, (i >> 1) & 1, (i >> 2) & 1
            inputs["a"] |= a << i
            inputs["b"] |= b << i
            inputs["s"] |= s << i
        values = sim.run(inputs, 8)
        for i in range(8):
            a, b, s = i & 1, (i >> 1) & 1, (i >> 2) & 1
            expected = a if s else b
            assert (values["out"] >> i) & 1 == expected

    def test_pseudo_inputs_include_dffs(self, s27):
        sim = CombSimulator(s27)
        assert set(sim.pseudo_inputs) == {
            "G0", "G1", "G2", "G3", "G5", "G6", "G7",
        }

    def test_missing_drive_raises(self, s27):
        sim = CombSimulator(s27)
        with pytest.raises(SimulationError, match="G7"):
            sim.run({s: 0 for s in ("G0", "G1", "G2", "G3", "G5", "G6")}, 1)

    def test_zero_patterns_rejected(self, mux_circuit):
        sim = CombSimulator(mux_circuit)
        with pytest.raises(SimulationError):
            sim.run({"a": 0, "b": 0, "s": 0}, 0)

    def test_fault_override_on_gate(self, mux_circuit):
        sim = CombSimulator(mux_circuit)
        inputs = {"a": 0b11, "b": 0b11, "s": 0b01}
        good = sim.run(inputs, 2)
        bad = sim.run(inputs, 2, faults={"out": (0, 0)})  # out stuck-at-0
        assert good["out"] == 0b11
        assert bad["out"] == 0

    def test_fault_override_on_input(self, mux_circuit):
        sim = CombSimulator(mux_circuit)
        inputs = {"a": 0b01, "b": 0b00, "s": 0b11}
        bad = sim.run(inputs, 2, faults={"a": (0b11, 0b11)})  # a stuck-at-1
        assert bad["out"] == 0b11

    def test_values_masked(self, mux_circuit):
        sim = CombSimulator(mux_circuit)
        values = sim.run({"a": ~0, "b": ~0, "s": ~0}, 4)
        for v in values.values():
            assert 0 <= v < 16


class TestPacking:
    def test_pack(self):
        words = pack_patterns(
            [{"a": 1, "b": 0}, {"a": 0, "b": 1}, {"a": 1, "b": 1}],
            ["a", "b"],
        )
        assert words == {"a": 0b101, "b": 0b110}

    def test_round_trip(self):
        pats = [{"x": i & 1} for i in range(5)]
        words = pack_patterns(pats, ["x"])
        assert [(words["x"] >> i) & 1 for i in range(5)] == [p["x"] for p in pats]
