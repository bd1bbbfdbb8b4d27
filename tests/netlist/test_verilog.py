"""Structural Verilog export."""

import re

import pytest

from repro.netlist import GateType, Netlist
from repro.netlist.verilog import write_verilog, write_verilog_file


class TestBasicShape:
    def test_s27_module(self, s27):
        text = write_verilog(s27)
        assert "module s27 (" in text
        assert "input clk;" in text
        assert text.count("assign") == 10  # one per comb cell
        assert text.strip().endswith("endmodule")

    def test_register_block(self, s27):
        text = write_verilog(s27)
        assert "always @(posedge clk)" in text
        assert "G5 <= G10;" in text
        assert "reg  G5;" in text

    def test_combinational_only_has_no_clk(self):
        nl = Netlist("comb")
        nl.add_input("a")
        nl.add_gate("y", GateType.NOT, ["a"])
        nl.add_output("y")
        text = write_verilog(nl)
        assert "clk" not in text
        assert "always" not in text


class TestOperators:
    @pytest.mark.parametrize(
        "gtype,fragment",
        [
            (GateType.AND, "(a & b)"),
            (GateType.NAND, "~(a & b)"),
            (GateType.OR, "(a | b)"),
            (GateType.NOR, "~(a | b)"),
            (GateType.XOR, "(a ^ b)"),
            (GateType.XNOR, "~(a ^ b)"),
        ],
    )
    def test_two_input_gates(self, gtype, fragment):
        nl = Netlist("g")
        nl.add_input("a")
        nl.add_input("b")
        nl.add_gate("y", gtype, ["a", "b"])
        nl.add_output("y")
        assert fragment in write_verilog(nl)

    def test_not_buf_mux(self):
        nl = Netlist("m")
        for pi in ("a", "b", "s"):
            nl.add_input(pi)
        nl.add_gate("n", GateType.NOT, ["a"])
        nl.add_gate("u", GateType.BUF, ["b"])
        nl.add_gate("y", GateType.MUX2, ["n", "u", "s"])
        nl.add_output("y")
        text = write_verilog(nl)
        assert "assign n = ~a;" in text
        assert "assign u = b;" in text
        assert "assign y = s ? u : n;" in text

    def test_wide_gate(self):
        nl = Netlist("w")
        for pi in ("a", "b", "c", "d"):
            nl.add_input(pi)
        nl.add_gate("y", GateType.NAND, ["a", "b", "c", "d"])
        nl.add_output("y")
        assert "~(a & b & c & d)" in write_verilog(nl)


class TestSanitization:
    def test_illegal_identifiers_renamed(self):
        nl = Netlist("weird")
        nl.add_input("3in")  # starts with a digit
        nl.add_gate("a.b", GateType.NOT, ["3in"])
        nl.add_output("a.b")
        text = write_verilog(nl)
        # no identifier may start with a digit or contain a dot
        for ident in re.findall(r"(?:input|output|wire|assign)\s+([^\s;=]+)", text):
            assert re.match(r"^[A-Za-z_]", ident), ident
            assert "." not in ident
        assert "s_3in" in text
        assert "s_a_b" in text
        assert "// renamed:" in text

    def test_keyword_collision(self):
        nl = Netlist("kw")
        nl.add_input("wire")
        nl.add_gate("reg", GateType.NOT, ["wire"])
        nl.add_output("reg")
        text = write_verilog(nl)
        assert "input s_wire;" in text

    def test_rename_uniqueness(self):
        nl = Netlist("dup")
        nl.add_input("a.b")
        nl.add_input("a_b")
        nl.add_gate("y", GateType.NAND, ["a.b", "a_b"])
        nl.add_output("y")
        text = write_verilog(nl)
        # both inputs survive as distinct identifiers
        assert "s_a_b" in text and "a_b" in text
        decls = re.findall(r"input ([A-Za-z0-9_$]+);", text)
        assert len(set(decls)) == 2

    def test_bist_netlist_exports(self, s27):
        from repro import Merced, MercedConfig
        from repro.cbit import insert_test_hardware

        report = Merced(MercedConfig(lk=3, seed=7)).run(s27)
        bist = insert_test_hardware(s27, report.partition, include_scan=True)
        text = write_verilog(bist.netlist)
        assert "test_mode" in text
        assert "scan_en" in text

    def test_file_io(self, s27, tmp_path):
        path = write_verilog_file(s27, tmp_path / "s27.v")
        assert path.read_text().startswith("// generated")
