"""Gate library: semantics, area model, fan-in rules, bench aliases."""

import pytest

from repro.errors import NetlistError
from repro.netlist.gates import (
    COMBINATIONAL_TYPES,
    DFF_AREA_UNITS,
    GATE_EVALUATORS,
    GateType,
    check_fanin,
    gate_area_units,
    parse_gate_type,
)

MASK4 = 0b1111
A = 0b1100
B = 0b1010


class TestAreaModel:
    """Section 4 counting rules: base areas + 1 unit per extra input."""

    @pytest.mark.parametrize(
        "gtype,area",
        [
            (GateType.NOT, 1),
            (GateType.NAND, 2),
            (GateType.NOR, 2),
            (GateType.AND, 3),
            (GateType.OR, 3),
            (GateType.XOR, 4),
            (GateType.XNOR, 5),
            (GateType.DFF, 10),
            (GateType.MUX2, 3),
        ],
    )
    def test_base_areas(self, gtype, area):
        n = 1 if gtype in (GateType.NOT, GateType.BUF, GateType.DFF) else (
            3 if gtype is GateType.MUX2 else 2
        )
        assert gate_area_units(gtype, n) == area

    def test_dff_is_ten_units(self):
        assert DFF_AREA_UNITS == 10

    @pytest.mark.parametrize("extra", [1, 2, 3, 4])
    def test_extra_inputs_cost_one_unit_each(self, extra):
        assert gate_area_units(GateType.NAND, 2 + extra) == 2 + extra
        assert gate_area_units(GateType.OR, 2 + extra) == 3 + extra

    def test_fanin_below_minimum_rejected(self):
        with pytest.raises(NetlistError):
            gate_area_units(GateType.AND, 1)

    def test_inverter_cannot_take_two_inputs(self):
        with pytest.raises(NetlistError):
            check_fanin(GateType.NOT, 2)

    def test_mux_requires_exactly_three(self):
        with pytest.raises(NetlistError):
            check_fanin(GateType.MUX2, 2)
        check_fanin(GateType.MUX2, 3)  # no raise


class TestEvaluation:
    """Truth tables on parallel-pattern words."""

    @pytest.mark.parametrize(
        "gtype,expected",
        [
            (GateType.AND, 0b1000),
            (GateType.NAND, 0b0111),
            (GateType.OR, 0b1110),
            (GateType.NOR, 0b0001),
            (GateType.XOR, 0b0110),
            (GateType.XNOR, 0b1001),
        ],
    )
    def test_two_input_truth_tables(self, gtype, expected):
        assert GATE_EVALUATORS[gtype]([A, B], MASK4) == expected

    def test_not_and_buf(self):
        assert GATE_EVALUATORS[GateType.NOT]([A], MASK4) == 0b0011
        assert GATE_EVALUATORS[GateType.BUF]([A], MASK4) == A

    def test_mux2_selects(self):
        sel = 0b1010
        assert GATE_EVALUATORS[GateType.MUX2]([A, B, sel], MASK4) == (
            (A & ~sel & MASK4) | (B & sel)
        )

    def test_three_input_and(self):
        c = 0b1111
        assert GATE_EVALUATORS[GateType.AND]([A, B, c], MASK4) == A & B

    def test_complement_respects_mask(self):
        out = GATE_EVALUATORS[GateType.NAND]([A, B], MASK4)
        assert out <= MASK4

    def test_dff_has_no_combinational_eval(self):
        assert GateType.DFF not in GATE_EVALUATORS

    def test_xor_multi_input_is_parity(self):
        assert GATE_EVALUATORS[GateType.XOR]([1, 1, 1], 1) == 1
        assert GATE_EVALUATORS[GateType.XOR]([1, 1, 1, 1], 1) == 0


class TestParsing:
    @pytest.mark.parametrize(
        "token,gtype",
        [
            ("AND", GateType.AND),
            ("nand", GateType.NAND),
            ("BUFF", GateType.BUF),
            ("buf", GateType.BUF),
            ("INV", GateType.NOT),
            ("NOT", GateType.NOT),
            ("dff", GateType.DFF),
            ("MUX", GateType.MUX2),
        ],
    )
    def test_aliases(self, token, gtype):
        assert parse_gate_type(token) is gtype

    def test_unknown_token_raises(self):
        with pytest.raises(NetlistError):
            parse_gate_type("LATCH")

    def test_combinational_types_exclude_dff(self):
        assert GateType.DFF not in COMBINATIONAL_TYPES
        assert GateType.NAND in COMBINATIONAL_TYPES
