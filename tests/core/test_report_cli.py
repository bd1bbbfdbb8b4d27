"""Table rendering and the merced CLI."""

import json

import pytest

from repro import Merced, MercedConfig
from repro.core import (
    format_table,
    render_table10_11,
)
from repro.core.cli import build_parser, main
from repro.circuits import load_circuit


class TestFormatTable:
    def test_alignment(self):
        text = format_table(["a", "bb"], [[1, 2.5], [30, 4.25]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert "2.5" in lines[2]
        assert all(len(l) == len(lines[0]) for l in lines[1:])

    def test_float_formatting(self):
        text = format_table(["x"], [[3.14159]])
        assert "3.1" in text


class TestRenderers:
    def test_table10(self):
        report = Merced(MercedConfig(lk=3, seed=7)).run_named("s27")
        text = render_table10_11([report.row], lk=3)
        assert "l_k = 3" in text
        assert "s27" in text


class TestCLI:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["s27"])
        assert args.lk == 16
        assert args.beta == 50

    def test_run_named_circuit(self, capsys):
        assert main(["s27", "--lk", "3", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert "Merced report for s27" in out

    def test_selftest_flag(self, capsys):
        assert main(["s27", "--lk", "3", "--seed", "7", "--selftest"]) == 0
        out = capsys.readouterr().out
        assert "PPET self-test" in out

    def test_bench_file(self, tmp_path, capsys):
        from repro.netlist import write_bench_file

        path = write_bench_file(load_circuit("s27"), tmp_path / "c.bench")
        assert main(["--bench", str(path), "--lk", "3"]) == 0
        assert "Merced report" in capsys.readouterr().out

    def test_missing_argument(self, capsys):
        assert main([]) == 2

    def test_infeasible_lk_reports_error(self, capsys):
        assert main(["s27", "--lk", "1"]) == 1
        assert "error" in capsys.readouterr().err

    def test_retime_flag(self, capsys):
        assert main(["s27", "--lk", "3", "--seed", "7", "--retime"]) == 0
        out = capsys.readouterr().out
        assert "covered by" in out and "registers" in out

    def test_bist_out_flag(self, tmp_path, capsys):
        target = tmp_path / "out.bench"
        assert main(
            ["s27", "--lk", "3", "--seed", "7", "--bist-out", str(target)]
        ) == 0
        assert target.exists()
        from repro.netlist import parse_bench_file

        bist = parse_bench_file(target)
        assert "test_mode" in bist.inputs

    def test_list_flag(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "s27 (exact ISCAS89)" in out
        assert "s38584.1" in out

    def test_verilog_out_flag(self, tmp_path, capsys):
        target = tmp_path / "out.v"
        assert main(
            ["s27", "--lk", "3", "--seed", "7", "--verilog-out", str(target)]
        ) == 0
        text = target.read_text()
        assert "module s27" in text

    def test_verilog_of_bist_netlist(self, tmp_path, capsys):
        bench = tmp_path / "b.bench"
        verilog = tmp_path / "b.v"
        assert main(
            [
                "s27", "--lk", "3", "--seed", "7",
                "--bist-out", str(bench),
                "--verilog-out", str(verilog),
            ]
        ) == 0
        assert "test_mode" in verilog.read_text()

    def test_bist_out_is_the_compile_circuit_netlist(self, tmp_path, capsys):
        from repro.core import compile_circuit
        from repro.netlist import write_bench, write_verilog

        bench = tmp_path / "b.bench"
        verilog = tmp_path / "b.v"
        assert main(
            [
                "s27", "--lk", "3", "--seed", "7",
                "--bist-out", str(bench),
                "--verilog-out", str(verilog),
            ]
        ) == 0
        bist = compile_circuit(
            load_circuit("s27"), MercedConfig(lk=3, seed=7)
        ).bist.netlist
        assert bench.read_text() == write_bench(bist)
        assert verilog.read_text() == write_verilog(bist)

    def test_retime_profile_has_compile_stages(self, tmp_path, capsys):
        trace = tmp_path / "trace.json"
        assert main(
            [
                "s27", "--lk", "3", "--seed", "7", "--selftest", "--retime",
                "--profile", str(trace),
            ]
        ) == 0
        stages = json.loads(trace.read_text())["stages"]
        assert stages["build_graph"]["calls"] == 2
        for stage in (
            "solve_retiming",
            "apply_retiming",
            "insert_test_hardware",
        ):
            assert stages[stage]["calls"] == 1, stage
        # the self-test runs under the same trace
        assert stages["session_fault_sim"]["calls"] >= 1

    @pytest.mark.parametrize(
        "argv, expected",
        [
            # covered plus unconstrained cuts of the least-area solve;
            # covering every coverable cut gave s510 17/105 at 79.9%
            (["s27", "--lk", "3"], "2/5 cut nets retimable, "
             "A_CBIT/A_Total 63.0% with retiming"),
            (["s510"], "4/105 cut nets retimable, "
             "A_CBIT/A_Total 81.2% with retiming"),
        ],
        ids=["s27", "s510"],
    )
    def test_retime_prints_exact_retimability(self, argv, expected, capsys):
        assert main(argv + ["--retime"]) == 0
        assert f"exact Table 12: {expected}" in capsys.readouterr().out

    def test_register_ring_partitions_but_cannot_retime(
        self, tmp_path, capsys
    ):
        # plain `merced X` stays partition-only: the retiming of a
        # register-only ring cannot be applied
        path = tmp_path / "ring.bench"
        path.write_text(
            "INPUT(a)\nOUTPUT(o)\n"
            "q1 = DFF(q2)\nq2 = DFF(q1)\no = AND(a, q1)\n"
        )
        assert main(["--bench", str(path), "--lk", "3"]) == 0
        assert "Merced report" in capsys.readouterr().out
        assert main(["--bench", str(path), "--lk", "3", "--retime"]) == 1
        assert "pure register cycle" in capsys.readouterr().err
