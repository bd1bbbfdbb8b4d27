"""The whole paper in one run: gate-level self-test through emitted hardware.

Compiles a circuit with Merced, inserts the full dual-mode test hardware
(A_CELLs on cut nets, PI generators, PO observers, per-CBIT PSA/TPG role
controls, scan), schedules the test pipes of Figure 1, and then *actually
clocks the emitted netlist*: in each pipe the generating CBITs free-run as
complete LFSRs and the observing CBITs compact responses.  Every stuck-at
fault of the original circuit is injected into the gate-level simulation
and graded purely by comparing CBIT signatures — the way the silicon
would.

Run:
    python examples/structural_selftest.py [circuit] [--lk N]
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

import argparse

from repro import MercedConfig, load_circuit
from repro.core import compile_circuit, format_table
from repro.faults import full_fault_list
from repro.ppet import run_structural_pipes, schedule_pipes


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("circuit", nargs="?", default="s27")
    parser.add_argument("--lk", type=int, default=3)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()

    circuit = load_circuit(args.circuit)
    arts = compile_circuit(circuit, MercedConfig(lk=args.lk, seed=args.seed))
    report, bist = arts.report, arts.bist
    print(report.render())

    print(
        f"\nemitted {bist.netlist.name}: "
        f"{len(bist.cut_cells)} cut A_CELLs, "
        f"{len(bist.converted_dffs)} converted DFFs, "
        f"{len(bist.cbit_chains)} CBIT chains, "
        f"{bist.added_area_units} units of test hardware"
    )

    schedule = schedule_pipes(report.partition, report.plan)
    faults = full_fault_list(circuit, include_inputs=False)
    result = run_structural_pipes(bist, schedule, faults=faults)

    rows = []
    for pipe in schedule.pipes:
        widths = [
            len(bist.cbit_chains[c])
            for c in pipe.tested_clusters
            if c in bist.cbit_chains
        ]
        rows.append(
            (
                pipe.index,
                ",".join(map(str, pipe.tested_clusters)),
                ",".join(map(str, sorted(pipe.tpg_clusters))),
                ",".join(map(str, sorted(pipe.psa_clusters))),
                1 << max(widths),
            )
        )
    print()
    print(
        format_table(
            ["pipe", "tests CUTs", "TPG CBITs", "PSA CBITs", "cycles"],
            rows,
        )
    )
    print(
        f"\nstructural self-test: {len(result.detected)}/{len(faults)} "
        f"stuck-at faults detected ({100 * result.coverage:.1f}%) "
        f"in {result.n_cycles} test-mode clocks"
    )
    if result.undetected:
        print(f"undetected: {sorted(map(str, result.undetected))}")
    sigs = result.golden.as_dict()
    print(
        "final-pipe signatures: "
        + ", ".join(f"CBIT{cid}={sig:#x}" for cid, sig in sorted(sigs.items()))
    )


if __name__ == "__main__":
    main()
