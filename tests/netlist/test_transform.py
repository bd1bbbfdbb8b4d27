"""Fresh signal names for structural netlist edits."""

import pytest

from repro.netlist import GateType, Netlist, fresh_signal_name


@pytest.fixture
def chain():
    nl = Netlist("chain")
    nl.add_input("a")
    nl.add_gate("g1", GateType.NOT, ["a"])
    nl.add_gate("g2", GateType.NOT, ["g1"])
    nl.add_gate("g3", GateType.NAND, ["g1", "g2"])
    nl.add_output("g3")
    nl.validate()
    return nl


class TestFreshNames:
    def test_unused_base_kept(self, chain):
        assert fresh_signal_name(chain, "new") == "new"

    def test_collision_suffixed(self, chain):
        assert fresh_signal_name(chain, "g1") == "g1_1"
