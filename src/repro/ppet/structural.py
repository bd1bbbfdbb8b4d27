"""Self-test through the *emitted* BIST netlist (gate-level validation).

:mod:`repro.ppet.session` grades faults behaviourally (extracted CUT +
ideal LFSR/MISR).  This module closes the loop at the hardware level: it
simulates the actual inserted test structures —
:func:`repro.cbit.insert.insert_test_hardware`'s netlist — clock by clock
in test mode, reads the per-CBIT signatures out of the register states,
and grades faults by injecting them into the gate-level simulation.  A
fault is detected when any CBIT signature differs from the fault-free run.

This is the "does the silicon we emit actually catch the fault?" check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from ..cbit.insert import BISTCircuit, SCAN_EN, SCAN_IN, TEST_MODE
from ..errors import SimulationError
from ..faults.model import StuckAtFault
from ..perf import count as perf_count
from ..perf import stage as perf_stage
from ..sim.bitparallel import WORD_BITS, block_ones, chunked, fault_block_masks
from ..sim.seqsim import SequentialSimulator

__all__ = [
    "StructuralSignatures",
    "StructuralSelfTest",
    "run_structural_pipes",
]

#: Register state every pipe of :func:`run_structural_pipes` starts from:
#: bit ``i`` seeds ``bist.chain_order[i]``.
_PIPE_SEED_STATE = 0b1011011011011011


@dataclass(frozen=True)
class StructuralSignatures:
    """Per-CBIT signatures after a structural test-mode run."""

    per_chain: Tuple[Tuple[int, int], ...]  # (cluster id, packed signature)

    def as_dict(self) -> Dict[int, int]:
        return dict(self.per_chain)


def _signatures(
    bist: BISTCircuit, state: Mapping[str, int], lane: int = 0
) -> StructuralSignatures:
    """Read the per-CBIT signatures out of lane ``lane`` of a state map."""
    per_chain: List[Tuple[int, int]] = []
    for cid, chain in sorted(bist.cbit_chains.items()):
        sig = 0
        for i, reg in enumerate(chain):
            if (state.get(reg, 0) >> lane) & 1:
                sig |= 1 << i
        per_chain.append((cid, sig))
    return StructuralSignatures(tuple(per_chain))


@dataclass
class StructuralSelfTest:
    """Outcome of :func:`run_structural_pipes`."""

    golden: StructuralSignatures
    detected: Set[StuckAtFault]
    undetected: Set[StuckAtFault]
    n_cycles: int

    @property
    def coverage(self) -> float:
        total = len(self.detected) + len(self.undetected)
        return len(self.detected) / total if total else 1.0


def run_structural_pipes(
    bist: BISTCircuit,
    schedule,
    faults: Sequence[StuckAtFault] = (),
) -> StructuralSelfTest:
    """Run the paper's test pipes through the emitted dual-mode netlist.

    Requires a BIST netlist built with ``dual_mode_controls=True``.  For
    each pipe of ``schedule`` (a :class:`repro.ppet.schedule.TestSchedule`)
    the chain registers start from :data:`_PIPE_SEED_STATE`, the
    functional primary inputs are held at 0, the TPG chains' ``psa_en``
    inputs are driven 0 (pure LFSR generation) and all others 1
    (signature compaction), the machine is clocked for
    ``2^(widest active chain)`` cycles, and the PSA signatures are
    collected.  A fault is detected when any PSA-role signature differs
    from the fault-free run in any pipe.
    """
    nl = bist.netlist
    chain_ids = sorted(bist.cbit_chains)
    psa_pins = {cid: f"psa_en_{cid}" for cid in chain_ids}
    for pin in psa_pins.values():
        if pin not in nl.inputs:
            raise SimulationError(
                "BIST netlist lacks dual-mode controls; rebuild with "
                "insert_test_hardware(..., dual_mode_controls=True)"
            )

    base = {pi: 0 for pi in nl.inputs}
    base[TEST_MODE] = 1
    if bist.has_scan:
        base[SCAN_EN] = 0
        base[SCAN_IN] = 0

    def pipe_cycles(pipe) -> int:
        widest = max(
            (
                len(bist.cbit_chains[c])
                for c in pipe.tested_clusters
                if c in bist.cbit_chains
            ),
            default=1,
        )
        return 1 << widest

    def run_lanes(
        n_lanes: int, mask_faults: Optional[Dict[str, tuple]]
    ) -> List[List[Tuple[int, Tuple[Tuple[int, int], ...]]]]:
        """Observations per lane: ``n_lanes`` machines share each pass."""
        ones = block_ones(1, n_lanes)
        observations: List[List[Tuple[int, Tuple[Tuple[int, int], ...]]]] = [
            [] for _ in range(n_lanes)
        ]
        for pipe in schedule.pipes:
            sim = SequentialSimulator(nl)
            sim.reset(
                {
                    q: ((_PIPE_SEED_STATE >> i) & 1) * ones
                    for i, q in enumerate(bist.chain_order)
                }
            )
            drive = {pi: v * ones for pi, v in base.items()}
            for cid in chain_ids:
                tpg = cid in pipe.tpg_clusters
                drive[psa_pins[cid]] = 0 if tpg else ones
            for _ in range(pipe_cycles(pipe)):
                sim.step(drive, n_patterns=n_lanes, faults=mask_faults)
            for lane in range(n_lanes):
                sigs = _signatures(bist, sim.state, lane=lane).as_dict()
                observed = tuple(
                    (cid, sigs[cid])
                    for cid in chain_ids
                    if cid in pipe.psa_clusters
                    or (
                        bist.cbit_chains.get(cid)
                        and cid not in pipe.tpg_clusters
                    )
                )
                observations[lane].append((pipe.index, observed))
        return observations

    for fault in faults:
        if not nl.has_signal(fault.signal):
            raise SimulationError(
                f"fault site {fault.signal!r} not in the BIST netlist"
            )
    detected: Set[StuckAtFault] = set()
    undetected: Set[StuckAtFault] = set()
    total_cycles = sum(pipe_cycles(pipe) for pipe in schedule.pipes)
    with perf_stage("structural_pipes"):
        golden = run_lanes(1, None)[0]
        for batch in chunked(faults, WORD_BITS):
            lanes = run_lanes(len(batch), fault_block_masks(batch, 1))
            for j, fault in enumerate(batch):
                if lanes[j] != golden:
                    detected.add(fault)
                else:
                    undetected.add(fault)
    perf_count("selftest_cycles", total_cycles * (1 + len(faults)))
    perf_count(
        "selftest_runs", 1 + (len(faults) + WORD_BITS - 1) // WORD_BITS
    )
    golden_last = dict(golden[-1][1]) if golden else {}
    return StructuralSelfTest(
        golden=StructuralSignatures(tuple(sorted(golden_last.items()))),
        detected=detected,
        undetected=undetected,
        n_cycles=total_cycles,
    )
