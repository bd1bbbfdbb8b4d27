"""End-to-end PPET self-test session simulation.

Given a partitioned circuit and its CBIT plan, the session extracts each
cluster's circuit-under-test (its combinational member cells, driven at
the cluster's input nets), drives it with the full pseudo-exhaustive
pattern space in CBIT (LFSR) order, compacts the observed responses into
MISR signatures, and grades every stuck-at fault of the segment — both by
raw response comparison and by signature comparison, so MISR aliasing is
measured rather than assumed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set

from ..cbit.assemble import CBITPlan, assemble_cbits
from ..faults.collapse import collapse_faults
from ..faults.coverage import CoverageReport
from ..faults.model import StuckAtFault
from ..graphs.digraph import NodeKind
from ..netlist.netlist import Netlist
from ..partition.clusters import Cluster, Partition
from ..perf import count as perf_count
from ..perf import stage as perf_stage
from ..sim.bitparallel import (
    WORD_BITS,
    chunked,
    extract_block,
    fault_block_masks,
    replicate_word,
)
from ..sim.logicsim import CombSimulator
from .patterns import lfsr_order_words
from .scan import ScanChain, build_scan_chain
from .schedule import TestSchedule, schedule_pipes
from .signature import SignatureVerdict, compact_signature

__all__ = ["CUTResult", "SessionReport", "extract_cut", "PPETSession"]

#: Target packed-word width for fault-parallel grading: enough lanes to
#: amortize the per-gate Python overhead, small enough that big-int
#: bitwise ops stay cache-friendly.
_TARGET_WORD_BITS = 1 << 13


def extract_cut(partition: Partition, cluster: Cluster, netlist: Netlist) -> Netlist:
    """Materialize a cluster's CUT as a standalone combinational netlist.

    Inputs are the cluster's input nets (signal names preserved); cells
    are the cluster's combinational members; outputs are the member
    signals observed by test registers — signals leaving the cluster,
    feeding any DFF, or driving a primary output.
    """
    graph = partition.graph
    cut = Netlist(f"{netlist.name}_cut{cluster.cluster_id}")
    for sig in sorted(cluster.input_nets):
        cut.add_input(sig)
    members = {
        n for n in cluster.nodes if graph.kind(n) is NodeKind.COMB
    }
    for name in members:
        cell = netlist.cell(name)
        cut.add_cell(cell)
    po_set = set(netlist.outputs)
    observed: List[str] = []
    for name in sorted(members):
        net = graph.net(name) if graph.has_net(name) else None
        is_observed = name in po_set
        if net is not None:
            for sink in net.sinks:
                kind = graph.kind(sink)
                if kind is NodeKind.REGISTER:
                    is_observed = True
                elif kind is NodeKind.COMB and sink not in members:
                    is_observed = True
        if is_observed:
            observed.append(name)
            cut.add_output(name)
    if not observed:
        # fully internal cluster: observe its sink cells so the CUT is
        # still gradeable (hardware-wise these feed other clusters' logic
        # through nets our cut-net analysis deemed internal)
        fan = cut.fanout_map()
        for name in sorted(members):
            if not fan.get(name):
                cut.add_output(name)
    cut.validate()
    return cut


@dataclass
class CUTResult:
    """Self-test outcome for one cluster."""

    cluster_id: int
    n_inputs: int
    n_patterns: int
    golden_signature: int
    detected: Set[StuckAtFault]
    undetected: Set[StuckAtFault]
    aliased: Set[StuckAtFault]  # responses differ, signature matches
    truncated: bool  # pattern space was capped (ι above the sim limit)

    @property
    def coverage(self) -> float:
        total = len(self.detected) + len(self.undetected)
        return len(self.detected) / total if total else 1.0


@dataclass
class SessionReport:
    """Aggregate self-test report."""

    circuit: str
    results: List[CUTResult]
    schedule: TestSchedule
    scan_chain: ScanChain

    @property
    def coverage(self) -> CoverageReport:
        report = CoverageReport()
        for r in self.results:
            report.add_segment(
                r.cluster_id, r.detected, r.detected | r.undetected
            )
        return report

    @property
    def aliasing_events(self) -> int:
        return sum(len(r.aliased) for r in self.results)

    def render(self) -> str:
        cov = self.coverage
        lines = [
            f"PPET self-test of {self.circuit}: "
            f"{len(self.results)} segments, "
            f"{self.schedule.n_pipes} test pipes, "
            f"{self.schedule.total_cycles} cycles "
            f"({self.schedule.scan_cycles} scan)",
            cov.render(),
            f"MISR aliasing events: {self.aliasing_events}",
        ]
        return "\n".join(lines)


class PPETSession:
    """Drive a full PPET self-test over a merged partition."""

    def __init__(
        self,
        netlist: Netlist,
        partition: Partition,
        plan: Optional[CBITPlan] = None,
        max_sim_inputs: int = 16,
    ):
        self.netlist = netlist
        self.partition = partition
        self.plan = plan or assemble_cbits(partition)
        self.max_sim_inputs = max_sim_inputs
        self.scan_chain = build_scan_chain(self.plan)

    # ------------------------------------------------------------------
    def run_cut(self, cluster: Cluster, collapse: bool = True) -> CUTResult:
        """Pseudo-exhaustively test one cluster and grade its faults."""
        cut = extract_cut(self.partition, cluster, self.netlist)
        signals = list(cut.inputs)
        # cap the simulated space; hardware would run the full 2^ι
        truncated = len(signals) > self.max_sim_inputs
        words, n_patterns = lfsr_order_words(signals[: self.max_sim_inputs])
        for extra in signals[self.max_sim_inputs:]:
            words[extra] = 0
        sim = CombSimulator(cut)
        observe = tuple(cut.outputs)
        good = sim.run(words, n_patterns)
        # The observing register is the downstream cluster's input CBIT,
        # so its width is on the order of l_k, not the raw output count.
        width = min(32, max(2, self.partition.lk, len(observe)))
        golden = compact_signature(good, observe, n_patterns, width=width)
        good_obs = [good[o] for o in observe]

        universe = [
            StuckAtFault(sig, v)
            for sig in list(cut.inputs) + [c.output for c in cut.cells()]
            for v in (0, 1)
        ]
        if collapse:
            collapsed = collapse_faults(cut, universe)
            to_simulate = collapsed.representatives
        else:
            collapsed = None
            to_simulate = universe

        detected_reps: Set[StuckAtFault] = set()
        undetected_reps: Set[StuckAtFault] = set()
        aliased: Set[StuckAtFault] = set()
        # Fault-parallel grading: tile the pattern block L times inside
        # one word and give each replica its own stuck-at masks, so a
        # single levelized pass grades L faults at once.
        lanes = max(1, min(WORD_BITS, _TARGET_WORD_BITS // n_patterns))
        replicated: Dict[int, Dict[str, int]] = {}
        with perf_stage("session_fault_sim"):
            for batch in chunked(to_simulate, lanes):
                n_lanes = len(batch)
                if n_lanes not in replicated:
                    replicated[n_lanes] = {
                        s: replicate_word(w, n_patterns, n_lanes)
                        for s, w in words.items()
                    }
                bad = sim.run(
                    replicated[n_lanes],
                    n_patterns * n_lanes,
                    faults=fault_block_masks(batch, n_patterns),
                )
                for j, fault in enumerate(batch):
                    bad_obs = [
                        extract_block(bad[o], n_patterns, j) for o in observe
                    ]
                    if bad_obs != good_obs:
                        detected_reps.add(fault)
                        sig = compact_signature(
                            dict(zip(observe, bad_obs)),
                            observe,
                            n_patterns,
                            width=width,
                        )
                        verdict = SignatureVerdict(
                            golden, sig, responses_differ=True
                        )
                        if verdict.aliased:
                            aliased.add(fault)
                    else:
                        undetected_reps.add(fault)
        perf_count("cut_faults_graded", len(to_simulate))
        perf_count("cut_patterns", n_patterns * (1 + len(to_simulate)))
        if collapsed is not None:
            detected = collapsed.expand(detected_reps)
            undetected = set(universe) - detected
        else:
            detected, undetected = detected_reps, undetected_reps
        return CUTResult(
            cluster_id=cluster.cluster_id,
            n_inputs=len(cut.inputs),
            n_patterns=n_patterns,
            golden_signature=golden,
            detected=detected,
            undetected=undetected,
            aliased=aliased,
            truncated=truncated,
        )

    def run(self, collapse: bool = True) -> SessionReport:
        """Test every cluster with a CBIT; aggregate coverage and timing."""
        results: List[CUTResult] = []
        by_id = {c.cluster_id: c for c in self.partition.clusters}
        for assignment in self.plan.assignments:
            cluster = by_id[assignment.cluster_id]
            results.append(self.run_cut(cluster, collapse=collapse))
        schedule = schedule_pipes(
            self.partition,
            self.plan,
            scan_cycles=self.scan_chain.init_cycles
            + self.scan_chain.readout_cycles,
        )
        return SessionReport(
            circuit=self.netlist.name,
            results=results,
            schedule=schedule,
            scan_chain=self.scan_chain,
        )
