"""Fault collapsing through inverter/buffer chains."""

import pytest

from repro.faults import StuckAtFault, collapse_faults, full_fault_list
from repro.netlist import GateType, Netlist


@pytest.fixture
def inv_chain():
    """a -> n1(NOT) -> n2(NOT) -> out(BUF); all fanout-free."""
    nl = Netlist("chain")
    nl.add_input("a")
    nl.add_gate("n1", GateType.NOT, ["a"])
    nl.add_gate("n2", GateType.NOT, ["n1"])
    nl.add_gate("out", GateType.BUF, ["n2"])
    nl.add_output("out")
    nl.validate()
    return nl


class TestChainCollapse:
    def test_chain_collapses_to_sink(self, inv_chain):
        result = collapse_faults(inv_chain, full_fault_list(inv_chain))
        # a/sa0 ≡ n1/sa1 ≡ n2/sa0 ≡ out/sa0
        assert result.class_of[StuckAtFault("a", 0)] == StuckAtFault("out", 0)
        assert result.class_of[StuckAtFault("a", 1)] == StuckAtFault("out", 1)
        assert result.class_of[StuckAtFault("n1", 1)] == StuckAtFault("out", 0)

    def test_representatives_reduced(self, inv_chain):
        result = collapse_faults(inv_chain, full_fault_list(inv_chain))
        assert set(result.representatives) == {
            StuckAtFault("out", 0),
            StuckAtFault("out", 1),
        }
        assert len(result.class_of) == 8

    def test_expand_recovers_class(self, inv_chain):
        result = collapse_faults(inv_chain, full_fault_list(inv_chain))
        expanded = result.expand([StuckAtFault("out", 0)])
        assert StuckAtFault("a", 0) in expanded
        assert StuckAtFault("n1", 1) in expanded
        assert StuckAtFault("a", 1) not in expanded


class TestNoCollapse:
    def test_fanout_blocks_collapse(self):
        nl = Netlist("fan")
        nl.add_input("a")
        nl.add_gate("n1", GateType.NOT, ["a"])
        nl.add_gate("u1", GateType.BUF, ["n1"])
        nl.add_gate("u2", GateType.BUF, ["n1"])
        nl.add_output("u1")
        nl.add_output("u2")
        result = collapse_faults(nl, full_fault_list(nl))
        # n1 has fanout 2: its faults must stay their own representatives
        assert result.class_of[StuckAtFault("n1", 0)] == StuckAtFault("n1", 0)

    def test_po_signal_not_collapsed_away(self):
        nl = Netlist("po")
        nl.add_input("a")
        nl.add_gate("mid", GateType.NOT, ["a"])
        nl.add_gate("out", GateType.NOT, ["mid"])
        nl.add_output("mid")  # mid is observable directly
        nl.add_output("out")
        result = collapse_faults(nl, full_fault_list(nl))
        assert result.class_of[StuckAtFault("mid", 0)] == StuckAtFault("mid", 0)

    def test_nand_gate_blocks_chain(self, s27):
        result = collapse_faults(s27, full_fault_list(s27))
        # G8 feeds OR gates (not inverters): stays representative
        assert result.class_of[StuckAtFault("G8", 0)] == StuckAtFault("G8", 0)


class TestThroughDFF:
    def test_dff_collapses_same_polarity(self, pipeline):
        result = collapse_faults(pipeline, full_fault_list(pipeline))
        # g1 -> q1 is fanout-free: g1/sa0 ≡ q1/sa0
        assert result.class_of[StuckAtFault("g1", 0)] == result.class_of[
            StuckAtFault("q1", 0)
        ]

    def test_collapse_is_idempotent(self, s27):
        faults = full_fault_list(s27)
        r1 = collapse_faults(s27, faults)
        r2 = collapse_faults(s27, r1.representatives)
        assert set(r2.representatives) == set(r1.representatives)
