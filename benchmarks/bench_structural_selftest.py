"""Extension bench: gate-level self-test through the emitted hardware.

Not a paper table — the paper asserts PPET's coverage by citing [8][15];
this bench *measures* it end to end: Merced partitions the circuit, the
BIST inserter emits the dual-mode netlist, the Figure 1 test pipes are
scheduled, and every stuck-at fault is graded purely from CBIT signatures
in the gate-level simulation.
"""

import pytest

from conftest import emit
from repro import MercedConfig
from repro.circuits import load_circuit
from repro.core import compile_circuit, format_table
from repro.faults import full_fault_list
from repro.ppet import schedule_pipes
from repro.ppet.structural import run_structural_pipes

CASES = [("s27", 3)]


def run_case(name, lk):
    circuit = load_circuit(name)
    arts = compile_circuit(circuit, MercedConfig(lk=lk, seed=7))
    report, bist = arts.report, arts.bist
    schedule = schedule_pipes(report.partition, report.plan)
    faults = full_fault_list(circuit, include_inputs=False)
    result = run_structural_pipes(bist, schedule, faults=faults)
    return circuit, report, bist, schedule, faults, result


def test_structural_selftest(benchmark, output_dir):
    rows = []
    for name, lk in CASES:
        circuit, report, bist, schedule, faults, result = benchmark.pedantic(
            run_case, args=(name, lk), rounds=1, iterations=1
        )
        rows.append(
            (
                name,
                lk,
                len(bist.cbit_chains),
                len(schedule.pipes),
                result.n_cycles,
                f"{len(result.detected)}/{len(faults)}",
                f"{100 * result.coverage:.1f}%",
                bist.added_area_units,
            )
        )
        assert result.coverage == 1.0
    table = format_table(
        [
            "Circuit",
            "l_k",
            "CBITs",
            "pipes",
            "test clocks",
            "detected",
            "coverage",
            "added units",
        ],
        rows,
    )
    emit(
        output_dir,
        "structural_selftest.txt",
        "Extension — gate-level self-test through the emitted BIST "
        "netlist\n" + table
        + "\n\nFault grading uses only the CBIT signatures, exactly as the "
        "silicon would; normal-mode equivalence of the emitted netlist is "
        "property-tested separately.",
    )
