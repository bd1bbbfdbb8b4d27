"""Emit the test-ready netlist: the BIST compiler's final artifact.

Compiles a circuit with ``compile_circuit`` — the same netlist
``merced --bist-out`` writes: A_CELLs on every cut net, PI generators, PO
observers, CBIT chaining, per-CBIT ``psa_en_<id>`` role controls, test-mode
and scan wiring — writes it as an ISCAS89 ``.bench`` file, and
demonstrates all three operating modes by simulation:

* **normal mode** — bit-identical to the original circuit, whatever the
  ``psa_en_*`` controls are set to;
* **test mode** — the CBIT registers generate patterns autonomously;
* **scan mode** — registers form one shift chain for init and read-out.

Run:
    python examples/bist_netlist_export.py [circuit] [--out FILE]
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
from repro.core import compile_circuit
from repro.netlist import write_bench_file
from repro.sim import SequentialSimulator, random_input_sequence


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("circuit", nargs="?", default="s27")
    parser.add_argument("--lk", type=int, default=3)
    parser.add_argument("--out", default=None)
    args = parser.parse_args()

    circuit = load_circuit(args.circuit)
    bist = compile_circuit(circuit, MercedConfig(lk=args.lk, seed=7)).bist

    print(f"original: {circuit!r}")
    print(f"emitted:  {bist.netlist!r}")
    print(
        f"inserted: {len(bist.cut_cells)} A_CELLs on cut nets and inputs, "
        f"{len(bist.converted_dffs)} DFFs converted, "
        f"{bist.added_area_units} area units "
        f"({bist.added_area_units / circuit.area_units():.0%} of the circuit)"
    )
    for cid, chain in sorted(bist.cbit_chains.items()):
        print(f"  CBIT {cid}: {' -> '.join(chain)}")

    # resolve against the caller's cwd explicitly, so where the artifact
    # lands is visible in the output rather than implicit
    out_path = _Path(args.out or f"{args.circuit}_bist.bench").resolve()
    write_bench_file(bist.netlist, str(out_path))
    print(f"\nwrote {out_path}")

    # --- demonstrate the modes -----------------------------------------
    seq = random_input_sequence(circuit, 20, seed=11)
    orig_trace = SequentialSimulator(circuit).run(seq)
    bist_sim = SequentialSimulator(bist.netlist)
    psa_pins = [pi for pi in bist.netlist.inputs if pi.startswith("psa_en_")]
    # normal mode ignores the role controls: drive them all high
    normal_mode = dict.fromkeys(psa_pins, 1)
    normal_mode.update(test_mode=0, scan_en=0, scan_in=0)
    normal = bist_sim.run([dict(x, **normal_mode) for x in seq])
    same = [t[: len(orig_trace[0])] for t in normal] == orig_trace
    print(f"normal mode bit-identical to original: {same}")

    # test mode with every CBIT a pattern generator (TPG role)
    bist_sim.reset()
    tpg_mode = dict.fromkeys(psa_pins, 0)
    tpg_mode.update(test_mode=1, scan_en=0, scan_in=0)
    toggles = {q: set() for q in bist.cut_cells.values()}
    for x in seq:
        bist_sim.step(dict(x, **tpg_mode))
        for q in toggles:
            toggles[q].add(bist_sim.state[q])
    print(
        "test mode: all "
        f"{len(toggles)} A_CELL registers generating patterns: "
        f"{all(len(v) == 2 for v in toggles.values())}"
    )

    bist_sim.reset()
    base = {pi: 0 for pi in bist.netlist.inputs}
    chain = bist.chain_order
    for bit in [1] * len(chain):
        bist_sim.step(dict(base, test_mode=1, scan_en=1, scan_in=bit))
    loaded = all(bist_sim.state[q] == 1 for q in chain)
    print(f"scan mode: chain of {len(chain)} registers loads correctly: {loaded}")


if __name__ == "__main__":
    main()
