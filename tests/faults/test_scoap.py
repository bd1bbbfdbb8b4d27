"""SCOAP controllability/observability analysis."""

import pytest

from repro.faults import StuckAtFault
from repro.faults.scoap import INF, compute_scoap
from repro.netlist import GateType, Netlist
from repro.ppet.random_test import fault_detectability


@pytest.fixture
def and_chain():
    """y = a & b & c & d as a chain of AND2s."""
    nl = Netlist("andchain")
    for pi in "abcd":
        nl.add_input(pi)
    nl.add_gate("t1", GateType.AND, ["a", "b"])
    nl.add_gate("t2", GateType.AND, ["t1", "c"])
    nl.add_gate("y", GateType.AND, ["t2", "d"])
    nl.add_output("y")
    nl.validate()
    return nl


class TestControllability:
    def test_primary_inputs_cost_one(self, and_chain):
        n = compute_scoap(and_chain)
        assert n.cc0["a"] == n.cc1["a"] == 1

    def test_and_one_harder_than_zero(self, and_chain):
        n = compute_scoap(and_chain)
        # y=1 needs all four inputs; y=0 needs any one
        assert n.cc1["y"] > n.cc0["y"]
        assert n.cc1["y"] == 4 + 3  # 4 input assignments + 3 gate levels

    def test_inverter_swaps(self):
        nl = Netlist("inv")
        nl.add_input("a")
        nl.add_gate("y", GateType.NOT, ["a"])
        nl.add_output("y")
        n = compute_scoap(nl)
        assert n.cc0["y"] == n.cc1["a"] + 1
        assert n.cc1["y"] == n.cc0["a"] + 1

    def test_xor_parity(self):
        nl = Netlist("x")
        nl.add_input("a")
        nl.add_input("b")
        nl.add_gate("y", GateType.XOR, ["a", "b"])
        nl.add_output("y")
        n = compute_scoap(nl)
        assert n.cc0["y"] == 3  # two inputs equal + 1 level
        assert n.cc1["y"] == 3

    def test_constant_node_unreachable_value(self):
        nl = Netlist("taut")
        nl.add_input("a")
        nl.add_gate("na", GateType.NOT, ["a"])
        nl.add_gate("y", GateType.OR, ["a", "na"])
        nl.add_output("y")
        n = compute_scoap(nl)
        # y can never be 0... SCOAP's simple rules can't prove that (they
        # ignore reconvergence), but CC0 must still exceed CC1
        assert n.cc0["y"] > n.cc1["y"]


class TestObservability:
    def test_outputs_free(self, and_chain):
        n = compute_scoap(and_chain)
        assert n.co["y"] == 0

    def test_deeper_signals_harder(self, and_chain):
        n = compute_scoap(and_chain)
        assert n.co["a"] > n.co["t1"] > n.co["t2"] > n.co["y"]

    def test_unobservable_is_inf(self):
        nl = Netlist("dead")
        nl.add_input("a")
        nl.add_gate("y", GateType.NOT, ["a"])
        nl.add_gate("dead", GateType.BUF, ["a"])
        nl.add_output("y")
        n = compute_scoap(nl)
        assert n.co["dead"] >= INF

    def test_dff_boundaries_are_scan_points(self, s27):
        n = compute_scoap(s27)
        # DFF data inputs are pseudo-outputs: directly observable
        for c in s27.dff_cells():
            assert n.co[c.inputs[0]] == 0
        # DFF outputs are pseudo-inputs: controllable at cost 1
        assert n.cc0["G5"] == 1


class TestDifficultyRanking:
    def test_hardest_faults_on_and_chain(self, and_chain):
        n = compute_scoap(and_chain)
        efforts = sorted(
            (n.difficulty(StuckAtFault(sig, v)) for sig in n.cc0 for v in (0, 1)),
            reverse=True,
        )
        # the stuck-at-0 faults needing all-ones activation + observation
        assert all(d >= 7 for d in efforts[:2])

    def test_difficulty_correlates_with_detectability(self, and_chain):
        """SCOAP-hard faults have low exact detectability."""
        n = compute_scoap(and_chain)
        easy = StuckAtFault("y", 1)  # activate y=0: one controlling input
        hard = StuckAtFault("y", 0)  # activate y=1: all inputs high
        assert n.difficulty(hard) > n.difficulty(easy)
        d_easy = fault_detectability(and_chain, easy)
        d_hard = fault_detectability(and_chain, hard)
        assert d_hard < d_easy

    def test_s27_all_sites_finite(self, s27):
        n = compute_scoap(s27)
        for sig in n.cc0:
            assert n.difficulty(StuckAtFault(sig, 0)) < INF
            assert n.difficulty(StuckAtFault(sig, 1)) < INF
