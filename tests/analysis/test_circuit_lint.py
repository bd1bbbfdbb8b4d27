"""Circuit/DFT linter: corrupted fixtures trigger every rule class.

Each test builds a deliberately broken netlist (or ``.bench`` text) and
asserts the matching rule fires — and that the bundled benchmarks stay
clean, so the Merced entry gate never rejects a healthy circuit.
"""

import json

import pytest

from repro.analysis import lint_bench_text, lint_circuit, lint_gate
from repro.analysis.circuit_rules import scan_bench_drivers
from repro.circuits import available_circuits, load_circuit
from repro.config import MercedConfig
from repro.core.cli import lint_main
from repro.errors import AnalysisError, InfeasiblePartitionError
from repro.netlist import GateType, Netlist


def rule_ids(report):
    return set(report.counts_by_rule())


def budget_ring():
    """A 1-DFF feedback ring provably infeasible under β=1, l_k=3.

    Four NAND gates in a cycle through one DFF, each reading two private
    primary inputs: the SCC's single comb component sees 9 boundary nets
    (8 PIs + the DFF output), so at ``l_k=3`` it needs ≥ 3 parts and
    hence ≥ 2 charged cuts, while Eq. 6 grants only β·f(λ) = 1.
    """
    n = Netlist("budget-ring")
    for i in range(8):
        n.add_input(f"p{i}")
    prev = "q"
    for i in range(4):
        n.add_gate(f"m{i}", GateType.NAND, [prev, f"p{2 * i}", f"p{2 * i + 1}"])
        prev = f"m{i}"
    n.add_dff("q", "m3")
    n.add_output("m3")
    return n


def base_netlist():
    """A tiny healthy circuit: 2 inputs, one gate, one DFF, one output."""
    n = Netlist("fixture")
    n.add_input("a")
    n.add_input("b")
    n.add_gate("g", GateType.AND, ["a", "b"])
    n.add_dff("q", "g")
    n.add_gate("o", GateType.OR, ["q", "a"])
    n.add_output("o")
    return n


class TestNetRules:
    def test_net001_dangling_cell(self):
        n = base_netlist()
        n.add_gate("dead", GateType.NOT, ["a"])
        report = lint_circuit(n)
        assert ("NET001", "warning", "dead") in [
            (d.rule_id, d.severity, d.location) for d in report.diagnostics
        ]

    def test_net002_unread_input(self):
        n = base_netlist()
        n.add_input("unused")
        report = lint_circuit(n)
        assert any(
            d.rule_id == "NET002" and d.location == "unused"
            for d in report.diagnostics
        )

    def test_net003_self_loop_dff(self):
        n = base_netlist()
        n.add_dff("loopy", "loopy")
        n.add_gate("r", GateType.NOT, ["loopy"])
        n.add_output("r")
        assert "NET003" in rule_ids(lint_circuit(n))

    def test_net004_structural_constant(self):
        n = base_netlist()
        n.add_gate("const", GateType.XOR, ["a", "a"])
        n.add_output("const")
        assert "NET004" in rule_ids(lint_circuit(n))

    def test_net005_undriven_signal(self):
        n = base_netlist()
        n.add_gate("bad", GateType.AND, ["a", "ghost"])
        n.add_output("bad")
        report = lint_circuit(n)
        assert any(
            d.rule_id == "NET005"
            and d.location == "ghost"
            and d.severity == "error"
            for d in report.diagnostics
        )

    def test_net006_multiply_driven_bench_text(self):
        text = "INPUT(a)\nOUTPUT(x)\nx = NOT(a)\nx = BUF(a)\n"
        report = lint_bench_text(text)
        assert any(
            d.rule_id == "NET006" and d.location == "x"
            for d in report.diagnostics
        )

    def test_net007_empty_interface(self):
        n = Netlist("void")
        report = lint_circuit(n)
        assert sum(1 for d in report.errors if d.rule_id == "NET007") == 2

    def test_scan_bench_drivers_ignores_comments_and_outputs(self):
        counts = scan_bench_drivers(
            "# x = NOT(a)\nOUTPUT(x)\nINPUT(a)\nx = NOT(a)\n"
        )
        assert counts == {"a": 1, "x": 1}


class TestGraphRules:
    def test_grf001_combinational_loop(self):
        n = base_netlist()
        n.add_gate("l1", GateType.NAND, ["a", "l2"])
        n.add_gate("l2", GateType.NAND, ["b", "l1"])
        n.add_gate("lo", GateType.OR, ["l1", "a"])
        n.add_output("lo")
        report = lint_circuit(n)
        hits = [d for d in report.errors if d.rule_id == "GRF001"]
        assert hits and "l1" in hits[0].message

    def test_grf002_dangling_cone(self):
        n = base_netlist()
        # a two-cell cone no primary output can observe
        n.add_gate("c1", GateType.NOT, ["a"])
        n.add_gate("c2", GateType.NOT, ["c1"])
        report = lint_circuit(n)
        # c1 has a reader (c2) → dangling cone; c2 is a dangling cell
        assert any(
            d.rule_id == "GRF002" and d.location == "c1"
            for d in report.warnings
        )


class TestRetimingAndBudgetRules:
    def ring(self, n_gates=3, with_dff=True):
        """A feedback ring of NAND gates, optionally through a DFF."""
        n = Netlist("ring")
        n.add_input("a")
        closer = "q" if with_dff else f"g{n_gates - 1}"
        n.add_gate("g0", GateType.NAND, ["a", closer])
        for i in range(1, n_gates):
            n.add_gate(f"g{i}", GateType.NAND, ["a", f"g{i - 1}"])
        if with_dff:
            n.add_dff("q", f"g{n_gates - 1}")
        n.add_output(f"g{n_gates - 1}")
        return n

    def test_ret001_register_free_scc(self):
        report = lint_circuit(self.ring(with_dff=False))
        assert any(d.rule_id == "RET001" for d in report.errors)
        # the same cycle also trips the combinational-loop rule
        assert "GRF001" in rule_ids(report)

    def test_ret002_cut_candidates_exceed_f(self):
        report = lint_circuit(self.ring(n_gates=4, with_dff=True))
        hits = [d for d in report.infos if d.rule_id == "RET002"]
        assert hits and "f(λ)=1" in hits[0].message

    def test_bud001_boundary_fanin_exceeds_lk(self):
        n = Netlist("wide")
        for i in range(5):
            n.add_input(f"i{i}")
        n.add_gate("wide", GateType.AND, [f"i{i}" for i in range(5)])
        n.add_output("wide")
        report = lint_circuit(n, MercedConfig(lk=4))
        assert any(
            d.rule_id == "BUD001" and d.location == "wide"
            for d in report.errors
        )

    def test_bud002_internal_fanin_exceeds_lk(self):
        n = Netlist("deep")
        n.add_input("a")
        for i in range(5):
            n.add_gate(f"s{i}", GateType.NOT, ["a" if i == 0 else f"s{i - 1}"])
        n.add_gate("wide", GateType.AND, [f"s{i}" for i in range(5)])
        n.add_output("wide")
        report = lint_circuit(n, MercedConfig(lk=4))
        assert any(
            d.rule_id == "BUD002" and d.location == "wide"
            for d in report.warnings
        )
        assert "BUD001" not in rule_ids(report)

    def test_bud003_budget_unsatisfiable(self):
        # A 1-register ring whose comb component is fed by 9 boundary
        # nets: at l_k=3 it must split into ≥ 3 parts, which costs ≥ 2
        # charged cuts — but Eq. 6 allows only β·f(λ) = 1×1 = 1.
        report = lint_circuit(budget_ring(), MercedConfig(lk=3, beta=1))
        hits = [d for d in report.errors if d.rule_id == "BUD003"]
        assert hits and "β·f(λ) = 1×1 = 1" in hits[0].message
        # raising the budget clears the error
        ok = lint_circuit(budget_ring(), MercedConfig(lk=3, beta=2))
        assert "BUD003" not in rule_ids(ok)


class TestSimRules:
    def test_sim001_unsupported_cell(self, monkeypatch):
        from repro.netlist import gates

        monkeypatch.delitem(gates.GATE_EVALUATORS, GateType.XOR)
        n = base_netlist()
        n.add_gate("x", GateType.XOR, ["a", "b"])
        n.add_output("x")
        report = lint_circuit(n)
        assert any(
            d.rule_id == "SIM001" and d.location == "x"
            for d in report.errors
        )

    def test_sim002_lk_too_wide(self):
        report = lint_circuit(base_netlist(), MercedConfig(lk=30))
        assert any(d.rule_id == "SIM002" for d in report.warnings)


class TestGate:
    def test_gate_clean_circuit_passes(self):
        lint_gate(load_circuit("s27"), MercedConfig(lk=16))

    def test_gate_raises_analysis_error_with_payload(self):
        n = Netlist("broken")
        n.add_input("a")
        n.add_gate("l1", GateType.NAND, ["a", "l2"])
        n.add_gate("l2", GateType.NAND, ["a", "l1"])
        n.add_output("l1")
        with pytest.raises(AnalysisError) as exc_info:
            lint_gate(n)
        exc = exc_info.value
        assert "GRF001" in str(exc)
        assert any(d["rule_id"] == "GRF001" for d in exc.lint_diagnostics)

    def test_gate_feasibility_errors_stay_infeasible(self):
        # pure-budget failures must keep raising InfeasiblePartitionError
        # so sweep callers can distinguish "infeasible point" from
        # "broken circuit".
        with pytest.raises(InfeasiblePartitionError):
            lint_gate(budget_ring(), MercedConfig(lk=3, beta=1))
        with pytest.raises(InfeasiblePartitionError):
            lint_gate(load_circuit("s641"), MercedConfig(lk=2))


class TestBundledBenchmarksClean:
    @pytest.mark.parametrize("name", available_circuits())
    def test_no_errors_at_default_config(self, name):
        report = lint_circuit(load_circuit(name), MercedConfig())
        assert not report.has_errors, report.render_text()


class TestLintCli:
    def test_text_output_and_exit_code(self, capsys):
        assert lint_main(["s27", "--lk", "3"]) == 0
        out = capsys.readouterr().out
        assert "lint report for s27" in out
        assert "rules checked (16)" in out

    def test_json_output(self, capsys):
        assert lint_main(["s27", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["subject"] == "s27"
        assert len(payload["rules_checked"]) == 16

    def test_bench_file_target(self, tmp_path, capsys):
        path = tmp_path / "bad.bench"
        path.write_text("INPUT(a)\nOUTPUT(x)\nx = NOT(a)\nx = BUF(a)\n")
        assert lint_main([str(path)]) == 1
        assert "NET006" in capsys.readouterr().out

    def test_suppress_and_min_severity(self, tmp_path, capsys):
        path = tmp_path / "bad.bench"
        path.write_text("INPUT(a)\nOUTPUT(x)\nx = NOT(a)\nx = BUF(a)\n")
        assert lint_main([str(path), "--suppress", "NET006"]) == 0
        assert (
            lint_main(["s27", "--min-severity", "warning"]) == 0
        )  # drops the RET002 infos
        out = capsys.readouterr().out
        assert "RET002  scc" not in out

    def test_unknown_target_exits_2(self, capsys):
        assert lint_main(["definitely-not-a-circuit"]) == 2
        assert "definitely-not-a-circuit" in capsys.readouterr().err

def test_corrupted_fixtures_span_ten_rule_ids():
    """One corrupted mega-netlist triggers ≥ 10 distinct rule ids."""
    n = budget_ring()  # BUD003 + RET002 under lk=3, beta=1
    n.add_input("a")
    n.add_input("b")
    n.add_input("unused")  # NET002
    n.add_gate("dead", GateType.NOT, ["a"])  # NET001
    n.add_dff("loopy", "loopy")  # NET003
    n.add_gate("rl", GateType.NOT, ["loopy"])
    n.add_output("rl")
    n.add_gate("const", GateType.XOR, ["a", "a"])  # NET004
    n.add_output("const")
    n.add_gate("l1", GateType.NAND, ["a", "l2"])  # GRF001 + RET001
    n.add_gate("l2", GateType.NAND, ["b", "l1"])
    n.add_gate("lo", GateType.OR, ["l1", "b"])
    n.add_output("lo")
    n.add_gate("c1", GateType.NOT, ["b"])  # GRF002 (cone c1→c2)
    n.add_gate("c2", GateType.NOT, ["c1"])
    n.add_input("w0")
    n.add_input("w1")
    n.add_input("w2")
    n.add_input("w3")
    n.add_gate(  # BUD001: 4 boundary inputs > lk=3
        "wide", GateType.AND, ["w0", "w1", "w2", "w3"]
    )
    n.add_output("wide")
    report = lint_circuit(n, MercedConfig(lk=3, beta=1))
    triggered = rule_ids(report)
    assert len(triggered) >= 10, sorted(triggered)
