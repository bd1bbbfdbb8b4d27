"""Merced — the BIST compiler (Table 2 of the paper).

STEP 1  build ``G(V, E)`` from the netlist;
STEP 2  identify the strongly connected components;
STEP 3  ``Assign_CBIT(G, Δ, α, l_k)`` honouring Eq. 6 — which internally
        saturates the network (Table 3) and clusters it (Tables 4–7);
STEP 4  return the partition ``P`` and its cost.

On top of the paper's steps, the report carries the Table 10/11 row
(cut-net statistics + CPU time) and the Table 12 area comparison.
With ``config.optimize`` set, the STEP 3 result is additionally refined
by the local-search tier (:mod:`repro.optimize`) before costing, and the
report's ``optimize`` field records the before/after deltas.

:func:`compile_circuit` is the one orchestration that goes on to a
test-ready netlist: :meth:`Merced.run`, then the cut retiming solve, its
application, and the BIST insertion, each in its own perf stage.
"""

from __future__ import annotations

import time
from dataclasses import replace
from typing import Optional

from ..analysis.lint import lint_circuit, lint_gate
from ..cbit.assemble import assemble_cbits
from ..errors import AnalysisError, NetlistError
from ..circuits.library import load_circuit
from ..config import MercedConfig
from ..graphs.build import build_circuit_graph
from ..graphs.scc import SCCIndex
from ..netlist.netlist import Netlist
from ..partition.assign_cbit import assign_cbit
from ..partition.make_group import make_group
from ..perf import count as perf_count
from ..perf import current_trace
from ..perf import stage as perf_stage
from .cost import CBITAreaComparison, compare_cbit_area
from .result import MercedReport, PartitionRow

__all__ = ["Merced", "CompilationArtifacts", "compile_circuit"]


class Merced:
    """Compile a synchronous netlist into a PPET-testable partition.

    Example:
        >>> from repro import Merced, MercedConfig, load_circuit
        >>> report = Merced(MercedConfig(lk=3, seed=7)).run(load_circuit("s27"))
        >>> report.n_partitions
        4
    """

    def __init__(self, config: Optional[MercedConfig] = None):
        self.config = config or MercedConfig()

    def run(self, netlist: Netlist) -> MercedReport:
        """Run STEPs 1–4 on ``netlist`` and return the full report.

        Every run builds its own graph: ``Saturate_Network`` and
        ``Make_Group`` keep their working state (flows, distances, CSR
        scratch) in its compiled view, so two runs must never share one.

        Args:
            netlist: a validated synchronous circuit.

        Raises:
            AnalysisError: the entry lint gate found structural errors
                (undriven nets, combinational loops, ...); the rendered
                report is the message and the raw findings ride on
                ``exc.lint_diagnostics``.
            InfeasiblePartitionError: the gate's Eq. 5/6 prechecks prove
                the ``(l_k, β)`` point infeasible, or ``make_group``
                discovers it dynamically.
        """
        try:
            netlist.validate()
        except NetlistError as exc:
            # Re-diagnose through the linter so the abort carries a
            # structured report (undriven signals, combinational loops,
            # empty interface) instead of the first hard check's message.
            report = lint_circuit(netlist, self.config)
            if report.has_errors:
                gate_exc = AnalysisError(
                    "circuit lint failed:\n" + report.render_text()
                )
                gate_exc.lint_diagnostics = [
                    d.as_dict() for d in report.diagnostics
                ]
                raise gate_exc from exc
            raise
        trace = current_trace()
        if trace is not None:
            trace.set_meta(
                circuit=netlist.name,
                lk=self.config.lk,
                beta=self.config.beta,
                seed=self.config.seed,
            )
        t0 = time.perf_counter()
        with perf_stage("build_graph"):
            graph = build_circuit_graph(  # STEP 1
                netlist, with_po_nodes=False
            )
        with perf_stage("scc"):
            scc_index = SCCIndex(graph)  # STEP 2
        with perf_stage("lint"):
            # Hard gate: structural errors raise AnalysisError,
            # (l_k, β)-infeasibility raises InfeasiblePartitionError
            # before any pipeline stage burns time on a doomed point.
            # Reuses graph/scc_index (and the CompiledGraph cached on
            # the graph), so no second graph build happens here.
            lint_gate(netlist, self.config, graph=graph, scc_index=scc_index)
        with perf_stage("make_group"):
            # STEP 3 (Tables 3-7)
            group = make_group(graph, scc_index, self.config)
        perf_count("splits", group.n_splits)
        partition = group.partition
        n_merges = 0
        if self.config.merge_clusters:
            with perf_stage("assign_cbit"):
                assigned = assign_cbit(partition)  # STEP 3 (Table 8)
            partition = assigned.partition
            n_merges = assigned.n_merges
        perf_count("merges", n_merges)

        optimize_stats = None
        if self.config.optimize is not None:
            from ..optimize import optimize_partition

            with perf_stage("optimize"):
                refined = optimize_partition(
                    graph,
                    scc_index,
                    partition,
                    self.config,
                    name=netlist.name,
                )
            partition = refined.partition
            optimize_stats = refined.stats()
            perf_count("optimize_moves", refined.n_accepted)
        cpu = time.perf_counter() - t0

        cut_nets = partition.cut_nets()
        perf_count("nets_cut", len(cut_nets))
        stats = netlist.stats()
        with perf_stage("area_accounting"):
            area = compare_cbit_area(
                circuit=stats.name,
                lk=self.config.lk,
                circuit_area_units=stats.area_units,
                cut_nets=cut_nets,
                scc_index=scc_index,
            )
        row = PartitionRow(
            circuit=stats.name,
            n_dffs=stats.n_dffs,
            n_dffs_on_scc=scc_index.registers_on_sccs(),
            n_cut_nets_on_scc=area.n_cut_nets_on_scc,
            n_cut_nets=area.n_cut_nets,
            cpu_seconds=cpu,
        )
        with perf_stage("assemble_cbits"):
            plan = assemble_cbits(partition)
        return MercedReport(
            circuit_stats=stats,
            config=self.config,
            partition=partition,
            plan=plan,
            area=area,
            row=row,
            n_merges=n_merges,
            n_splits=group.n_splits,
            saturation_sources=group.saturation.n_sources,
            optimize=optimize_stats,
        )

    def run_named(self, name: str) -> MercedReport:
        """Convenience: :func:`repro.circuits.load_circuit` then :meth:`run`."""
        return self.run(load_circuit(name))


class CompilationArtifacts:
    """Everything :func:`compile_circuit` produces in one call.

    Attributes:
        report: the partition/cost report (STEP 4 of Table 2).
        retiming: the cut-retiming solution (which cuts existing DFFs can
            cover).
        retimed: the retimed netlist wrapper.
        bist: the emitted test-ready netlist.
    """

    def __init__(self, report, retiming, retimed, bist):
        self.report = report
        self.retiming = retiming
        self.retimed = retimed
        self.bist = bist

    @property
    def exact_area(self) -> CBITAreaComparison:
        """The Table 12 row with the exact retimability of this solve.

        A cut the emitted solve covers shares a retimed functional DFF
        and an unconstrained one needs no register move, so both take
        the retimed A_CELL rate; the report's own row keeps the paper's
        per-SCC count.
        """
        return replace(
            self.report.area,
            n_retimable=len(self.retiming.covered_cuts)
            + len(self.retiming.unconstrained_cuts),
        )

    def summary(self) -> str:
        """The report, the retiming line and the emitted netlist line.

        The retiming line ends with the area the retiming controls, the
        objective :func:`~repro.retiming.solve.solve_cut_retiming`
        minimises: 10 units per register after fan-out sharing plus 14
        per dropped cut.
        """
        from ..retiming.registers import emitted_area

        retiming, area = self.retiming, self.exact_area
        units = emitted_area(
            self.retimed.n_registers_after, len(retiming.dropped_cuts)
        )
        return "\n".join([
            self.report.render(),
            f"retiming: {len(retiming.covered_cuts)} cut(s) covered by "
            f"functional DFFs, {len(retiming.dropped_cuts)} need MUXed "
            f"A_CELLs, {len(retiming.unconstrained_cuts)} unconstrained; "
            f"registers {self.retimed.n_registers_before} -> "
            f"{self.retimed.n_registers_after}; emitted area {units} units",
            f"  exact Table 12: {area.n_retimable}/{area.n_cut_nets} cut "
            f"nets retimable, A_CBIT/A_Total {area.pct_with_retiming:.1f}% "
            f"with retiming",
            f"BIST netlist: {self.bist.netlist.name} "
            f"({len(self.bist.cut_cells)} A_CELLs, "
            f"+{self.bist.added_area_units} units)",
        ])


def compile_circuit(
    netlist, config: Optional[MercedConfig] = None
) -> CompilationArtifacts:
    """One-call BIST compilation: partition, retime, emit hardware.

    Runs :meth:`Merced.run`, solves the cut retiming on the graph with
    primary-output sinks (I/O lags free, no host condition), applies it,
    and inserts the test hardware (A_CELLs, scan, PI/PO cells and
    dual-mode controls) on the *original* netlist.  The retiming results
    are reported alongside, so a flow can choose which netlist to take
    forward.

    Args:
        netlist: the circuit to compile.
        config: Merced parameters.

    Raises:
        RetimingError: :func:`~repro.retiming.apply.apply_retiming`
            rejects the solved retiming, e.g. when the circuit reads a
            register-only ring (a pure register cycle).

    Example:
        >>> from repro import load_circuit, MercedConfig
        >>> from repro.core.merced import compile_circuit
        >>> arts = compile_circuit(
        ...     load_circuit("s27"), MercedConfig(lk=3, seed=7)
        ... )
        >>> arts.report.n_partitions >= 3 and arts.bist is not None
        True
    """
    from ..cbit.insert import insert_test_hardware
    from ..retiming.apply import apply_retiming
    from ..retiming.solve import solve_cut_retiming

    report = Merced(config).run(netlist)
    with perf_stage("build_graph"):
        graph = build_circuit_graph(netlist, with_po_nodes=True)
    with perf_stage("solve_retiming"):
        retiming = solve_cut_retiming(graph, report.partition.cut_nets())
    # The solution keeps only its edge list, so the PO-sink graph can go
    # before apply_retiming builds the (register-heavy) retimed netlist.
    del graph
    with perf_stage("apply_retiming"):
        retimed = apply_retiming(netlist, retiming.retiming.rho)
    with perf_stage("insert_test_hardware"):
        bist = insert_test_hardware(
            netlist,
            report.partition,
            include_scan=True,
            include_primary_inputs=True,
            include_primary_outputs=True,
            dual_mode_controls=True,
        )
    return CompilationArtifacts(
        report=report, retiming=retiming, retimed=retimed, bist=bist
    )
