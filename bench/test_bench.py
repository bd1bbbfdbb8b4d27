"""Tests of the benchmark itself: metric coverage, trace fidelity, oracles.

Run with ``PYTHONPATH=src python -m pytest bench/`` (under a minute: one
smoke run per workload and trace mode).
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from repro.netlist import Cell  # noqa: E402
from repro.netlist.bench import write_bench  # noqa: E402
from repro.partition import Cluster, Partition  # noqa: E402


@pytest.fixture(scope="module")
def smoke_results():
    """One smoke run of every workload in both trace modes."""
    results = {}
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", "1996", "--trace", str(trace), "--smoke"],
                cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=300,
            )
            lines = proc.stdout.strip().splitlines()
            results[workload, trace] = (
                proc.returncode, json.loads(lines[-1]) if lines else None
            )
    return results


def test_every_metric_is_emitted_with_its_unit(smoke_results):
    for (workload, trace), (code, result) in smoke_results.items():
        assert code == 0, (workload, trace)
        spec = run.LAYER if trace else run.E2E
        metrics = result["metrics"]
        assert set(metrics) == set(spec), (workload, trace)
        for name, m in spec.items():
            assert metrics[name]["unit"] == m["unit"]
            if not trace:
                assert metrics[name]["value"] > 0, (workload, name)
        if trace:
            assert metrics["workload.pass_s"]["value"] > 0, workload


def test_smoke_outputs_pass_every_oracle(smoke_results):
    for (workload, trace), (_, result) in smoke_results.items():
        assert result["correct"], (workload, trace)
        assert result["attempted"] >= 1 and result["failed"] == 0


def test_trace_covers_the_compile_pass(smoke_results):
    for workload in ("iscas-compile", "corpus-scale"):
        metrics = smoke_results[workload, 1][1]["metrics"]
        assert metrics["trace.coverage"]["value"] >= 0.97
        assert metrics["flow.saturate_s"]["value"] > 0
        assert metrics["retiming.solve_s"]["value"] > 0


def test_traced_result_equals_untraced():
    for job in workloads.iscas_jobs(1996, smoke=True):
        traced = workloads.compile_traced(job, {})
        plain = workloads.compile_untraced(job)
        assert traced.fingerprint() == plain.fingerprint(), job.name


def _s27():
    """s27 compiled at l_k=3, small enough to split into several clusters."""
    netlist = workloads.iscas_netlist("s27")
    job = workloads.CompileJob(
        "s27", write_bench(netlist), workloads.bench_config(netlist, 3, 1996)
    )
    return job, workloads.compile_untraced(job)


def test_partition_oracle_rejects_a_cluster_past_lk():
    job, result = _s27()
    lk = job.config.lk
    clusters = result.partition.clusters
    assert len(clusters) > 1
    assert checks.check_partition(result.netlist, result.partition, lk) == []
    # All of s27 in one cluster: its 4 inputs and 3 register outputs all
    # feed it, so ι = 7 > 3.  The cached input_nets are left stale on
    # purpose; the oracle must recount.
    merged = Cluster(0, frozenset().union(*(c.nodes for c in clusters)))
    tampered = Partition(result.partition.graph, [merged], lk=lk)
    problems = checks.check_partition(result.netlist, tampered, lk)
    assert len(problems) == 1 and "Eq. 5" in problems[0]


def test_retiming_oracle_rejects_a_tampered_netlist():
    job, result = _s27()
    retimed = result.retimed.netlist
    assert checks.check_retiming(result.netlist, retimed) == []
    # One extra register on G10's input from G11: the loop
    # G10 -> G11 -> G10 keeps its register count under any legal
    # retiming, so an extra one on it cannot be explained by any ρ.
    tampered = retimed.copy()
    g10 = tampered.cell("G10")
    pin = next(
        n for n, signal in enumerate(g10.inputs)
        if signal == "G11" or "G11__rt" in signal
    )
    tampered.add_dff("tamper_ff", g10.inputs[pin])
    inputs = list(g10.inputs)
    inputs[pin] = "tamper_ff"
    tampered.replace_cell(Cell(g10.output, g10.gtype, tuple(inputs)))
    problems = checks.check_retiming(result.netlist, tampered)
    assert len(problems) == 1 and "not a legal retiming" in problems[0]


def test_compare_verdicts():
    parent = [10.0, 10.2, 9.9, 10.1, 10.0, 10.05, 9.95, 10.1, 10.0, 9.9]
    faster = [v * 0.8 for v in parent]
    slower = [v * 1.2 for v in parent]
    noisy = [5.0, 15.0] * 5
    assert run.verdict(parent, faster, 0.1, "lower") == "improved"
    assert run.verdict(parent, slower, 0.1, "lower") == "regressed"
    assert run.verdict(parent, list(parent), 0.1, "lower") == "unchanged"
    assert run.verdict(noisy, list(noisy), 0.1, "lower") == "unresolved"
    assert run.verdict(parent, faster, 0.1, "higher") == "regressed"


def test_exact_verdicts_follow_the_metric_direction():
    exact = run.exact_verdict
    assert exact("partition.dfs_visits", [5], [5], "lower") == "unchanged"
    assert exact("partition.dfs_visits", [5], [4], "lower") == "improved"
    # A work counter that grows is reported, not a regression.
    assert exact("partition.dfs_visits", [5], [6], "lower") == "worse"
    assert exact("quality.cbit_cost_dff", [5], [6], "lower") == "regressed"
    assert exact("quality.covered_cut_frac", [0.5], [0.4], "higher") == "regressed"


def _document(pass_s, correct=True, run_seconds=30.0):
    """A result file of one workload: untraced runs, one pass each."""
    runs = [{
        "workload": "iscas-compile", "trace": 0, "round": n,
        "exit_code": 0 if correct else 1, "wall_s": 1.0,
        "result": {
            "correct": correct, "attempted": 10, "failed": 0 if correct else 1,
            "metrics": {
                name: {"value": 1.0, "unit": m["unit"]}
                for name, m in run.E2E.items()
            },
        },
        "pass_walls": [value],
    } for n, value in enumerate(pass_s)]
    return {"_meta": {"run_seconds": run_seconds, "smoke": False}, "runs": runs}


def _compare(tmp_path, a, b) -> int:
    paths = []
    for name, document in (("a.json", a), ("b.json", b)):
        paths.append(tmp_path / name)
        paths[-1].write_text(json.dumps(document))
    return run.compare(*map(str, paths))


def test_compare_ignores_failed_runs_and_refuses_gains_with_failures(
    tmp_path, capsys
):
    parent = _document([10.0, 10.1, 9.9, 10.0, 10.05, 9.95, 10.0, 10.1, 9.9, 10.0])
    faster = _document([8.0] * 10)
    assert run.values(_document([1.0] * 3), "iscas-compile",
                      "workload.pass_s", 0) == [1.0] * 3
    assert run.values(_document([1.0] * 3, correct=False),
                      "iscas-compile", "workload.pass_s", 0) == []
    assert _compare(tmp_path, parent, faster) == 0
    assert "improved" in capsys.readouterr().out
    # The same speed-up with one failed run is no gain, and failing more
    # operations than the parent is itself a regression.
    failing = _document([8.0] * 10)
    failing["runs"][0] = _document([8.0], correct=False)["runs"][0]
    assert _compare(tmp_path, parent, failing) == 1
    lines = capsys.readouterr().out.splitlines()
    assert any("failed_frac" in line and "regressed" in line for line in lines)
    assert any("workload.pass_s" in line and "unresolved" in line
               for line in lines)


def test_compare_refuses_different_run_lengths(tmp_path):
    a = _document([10.0] * 10)
    b = _document([10.0] * 10, run_seconds=10.0)
    assert _compare(tmp_path, a, b) == 2
