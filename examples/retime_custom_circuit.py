"""Bring your own design: parse a .bench netlist, partition it, retime the
cut registers, and formally check the retimed circuit.

Demonstrates the full "area-efficient PPET" story on a custom circuit:

1. parse an ISCAS89-format netlist (here built inline; pass a path to use
   your own file);
2. run Merced to choose the cut nets;
3. solve for the legal retiming of least emitted area, which moves
   existing DFFs onto the cuts where that saves a MUXed A_CELL (with the
   strict I/O-latency-preserving host condition);
4. apply the retiming, verify it is a legal retiming (Corollary 2 check),
   and compute an equivalent power-up state for the moved registers.

Run:
    python examples/retime_custom_circuit.py [path/to/design.bench]
"""

# --- bootstrap: allow running from a fresh checkout without installing ---
# Resolve src/ relative to this script so `python examples/<name>.py` works
# with plain `git clone` (no-op when the package is pip-installed).
import sys
from pathlib import Path as _Path

_SRC = str(_Path(__file__).resolve().parents[1] / "src")
if (_Path(_SRC) / "repro").is_dir() and _SRC not in sys.path:
    sys.path.insert(0, _SRC)
# -------------------------------------------------------------------------

import sys

from repro import Merced, MercedConfig
from repro.graphs import build_circuit_graph
from repro.netlist import parse_bench, parse_bench_file
from repro.retiming import (
    apply_retiming,
    check_equivalence,
    find_equivalent_initial_state,
    solve_cut_retiming,
    verify_retiming,
)

DEMO_BENCH = """
# a control loop with a wide combinational region: at l_k = 3 the region
# must be cut, and one cut lands on n2, whose gate reads only the loop's
# two DFFs -- moving both forward across n2 leaves one register on the
# cut net, so the cut is covered with fewer registers than before
INPUT(d0)
INPUT(d1)
INPUT(d2)
INPUT(d3)
OUTPUT(y)
n1 = NAND(d0, d1)
n2 = NOR(q1, q2)
n3 = XOR(n2, d2)
q1 = DFF(n3)
n4 = AND(n2, n1)
n5 = OR(n4, d3)
q2 = DFF(n5)
n6 = NAND(n5, n3)
y = NOT(n6)
"""


def main() -> None:
    if len(sys.argv) > 1:
        netlist = parse_bench_file(sys.argv[1])
    else:
        netlist = parse_bench(DEMO_BENCH, name="demo")
    print(f"loaded {netlist!r}")

    report = Merced(MercedConfig(lk=3, seed=5)).run(netlist)
    cuts = report.partition.cut_nets()
    print(f"\n{report.render()}")
    print(f"\ncut nets chosen by the partitioner: {sorted(cuts)}")

    graph = build_circuit_graph(netlist, with_po_nodes=True)
    solution = solve_cut_retiming(graph, cuts, pin_io=True)
    print(
        f"retiming covers {sorted(solution.covered_cuts)} with functional "
        f"DFFs (0.9x A_CELLs); {sorted(solution.dropped_cuts)} keep MUXed "
        f"A_CELLs (2.3x)"
    )
    lags = {k: v for k, v in solution.retiming.rho.items() if v}
    print(f"non-zero lags: {lags or '(identity)'}")

    retimed = apply_retiming(netlist, solution.retiming.rho)
    verify_retiming(netlist, retimed.netlist)
    print(
        f"\nretimed netlist verified: {retimed.n_registers_before} -> "
        f"{retimed.n_registers_after} registers"
    )

    state = find_equivalent_initial_state(netlist, retimed.netlist)
    assert check_equivalence(netlist, {}, retimed.netlist, state, n_steps=20)
    print(f"equivalent power-up state for the retimed registers: {state}")
    print("behavioural equivalence verified over random stimuli.")


if __name__ == "__main__":
    main()
