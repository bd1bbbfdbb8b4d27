"""Non-fatal netlist structure checks: the NET001-NET004 lint rules."""

from repro.analysis import lint_circuit
from repro.netlist import GateType, Netlist

NET_RULES = ("NET001", "NET002", "NET003", "NET004")


def net_lint(netlist):
    return lint_circuit(netlist, rules=NET_RULES, min_severity="info")


def locations(netlist, rule_id):
    return [
        d.location for d in net_lint(netlist).diagnostics
        if d.rule_id == rule_id
    ]


def test_clean_circuit(s27):
    report = net_lint(s27)
    assert not report.diagnostics
    assert report.summary() == "0 error(s), 0 warning(s), 0 info"


def test_dangling_cell_detected():
    nl = Netlist("dangle")
    nl.add_input("a")
    nl.add_gate("used", GateType.NOT, ["a"])
    nl.add_gate("dead", GateType.NOT, ["a"])
    nl.add_output("used")
    report = net_lint(nl)
    assert [d.location for d in report.diagnostics] == ["dead"]
    assert report.diagnostics[0].rule_id == "NET001"
    assert report.diagnostics
    assert "1 warning(s)" in report.summary()


def test_unread_input_detected():
    nl = Netlist("unread")
    nl.add_input("a")
    nl.add_input("unused")
    nl.add_gate("g", GateType.NOT, ["a"])
    nl.add_output("g")
    assert locations(nl, "NET002") == ["unused"]


def test_input_that_is_output_not_unread():
    nl = Netlist("feedthrough")
    nl.add_input("a")
    nl.add_input("b")
    nl.add_gate("g", GateType.NOT, ["a"])
    nl.add_output("g")
    nl.add_output("b")
    assert locations(nl, "NET002") == []


def test_self_loop_dff_detected():
    nl = Netlist("selfdff")
    nl.add_input("a")
    nl.add_dff("q", "q")
    nl.add_gate("g", GateType.NAND, ["a", "q"])
    nl.add_output("g")
    assert locations(nl, "NET003") == ["q"]


def test_constant_candidate_detected():
    nl = Netlist("const")
    nl.add_input("a")
    nl.add_gate("x", GateType.XOR, ["a", "a"])  # structurally 0
    nl.add_output("x")
    assert locations(nl, "NET004") == ["x"]


def test_generated_circuits_have_no_dangling_cells(s510):
    assert locations(s510, "NET001") == []
    assert locations(s510, "NET002") == []
