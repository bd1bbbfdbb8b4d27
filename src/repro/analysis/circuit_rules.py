"""The circuit/DFT rule catalog (``NET``/``GRF``/``RET``/``BUD``/``SIM``).

Rule families and the paper constructs they guard:

* ``NET00x`` — netlist hygiene (Table 1's structural assumptions):
  dangling cells, unread inputs, self-loop DFFs, structural constants,
  undriven signals, multiply-driven signals, empty PI/PO interface.
* ``GRF00x`` — graph preconditions for ``G`` (Table 2, STEP 1):
  combinational loops (Tarjan on the register-free subgraph) and cones
  unreachable from any primary output.
* ``RET00x`` — retiming-legality preconditions (Corollary 2): an SCC
  with ``f(λ) = 0`` registers admits no legal retiming at all, and a
  candidate-cut count above ``f(λ)`` predicts MUXed A_CELL sharing.
* ``BUD00x`` — Eq. 5/6 feasibility: per-cell boundary fan-in above
  ``l_k`` (no partition can help), total fan-in above ``l_k``
  (heads-up), and the :mod:`~repro.analysis.precheck` charged-cut lower
  bound ``χ_min(λ) > β·f(λ)``.
* ``SIM00x`` — bit-parallel simulability assumptions from
  :mod:`repro.netlist.gates` / :mod:`repro.netlist.cells`.

All checks yield ``(location, message, fixit_hint)``; severities are
fixed per rule (see the registrations below).  Registration happens at
import time; :func:`repro.analysis.rules.rule_catalog` imports this
module on first use.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Set

from ..netlist.gates import GATE_EVALUATORS
from .rules import Finding, RuleContext, rule

__all__ = ["scan_bench_drivers"]

#: Upper l_k beyond which 2^l_k pseudo-exhaustive patterns per cone stop
#: being practical for the bit-parallel session (2^26 ≈ 67M vectors).
MAX_PRACTICAL_LK = 26


# ----------------------------------------------------------------------
# NET: netlist hygiene
# ----------------------------------------------------------------------
@rule("NET001", "warning", "dangling cell")
def _net001(ctx: RuleContext) -> Iterator[Finding]:
    fan = ctx.fanout
    outs = ctx.output_set
    for cell in ctx.netlist.cells():
        if not fan.get(cell.output) and cell.output not in outs:
            yield (
                cell.output,
                "cell drives neither a primary output nor any other cell",
                "remove the cell or add a reader/primary output",
            )


@rule("NET002", "warning", "unread primary input")
def _net002(ctx: RuleContext) -> Iterator[Finding]:
    fan = ctx.fanout
    outs = ctx.output_set
    for sig in ctx.netlist.inputs:
        if not fan.get(sig) and sig not in outs:
            yield (
                sig,
                "primary input is never read",
                "drop the input or wire it into the logic",
            )


@rule("NET003", "warning", "self-loop DFF")
def _net003(ctx: RuleContext) -> Iterator[Finding]:
    for cell in ctx.netlist.cells():
        if cell.is_dff and cell.inputs[0] == cell.output:
            yield (
                cell.output,
                "DFF feeds its own data input; it locks to its initial "
                "value and defeats testing",
                "break the loop with combinational logic",
            )


@rule("NET004", "warning", "structural constant")
def _net004(ctx: RuleContext) -> Iterator[Finding]:
    for cell in ctx.netlist.cells():
        if (
            not cell.is_dff
            and len(set(cell.inputs)) == 1
            and len(cell.inputs) > 1
        ):
            yield (
                cell.output,
                f"{cell.gtype.name} gate reads the same signal on every "
                "input (structural constant or pass-through)",
                "collapse the gate or diversify its inputs",
            )


@rule("NET005", "error", "undriven signal")
def _net005(ctx: RuleContext) -> Iterator[Finding]:
    net = ctx.netlist
    seen: Set[str] = set()
    for cell in net.cells():
        for sig in cell.inputs:
            if sig not in seen and not net.has_signal(sig):
                seen.add(sig)
                yield (
                    sig,
                    f"signal is read by {cell.output} but never driven",
                    "add a driver (INPUT(...) or a gate) for the signal",
                )
    for sig in net.outputs:
        if sig not in seen and not net.has_signal(sig):
            seen.add(sig)
            yield (
                sig,
                "primary output is never driven",
                "add a driver (INPUT(...) or a gate) for the signal",
            )


@rule("NET006", "error", "multiply-driven signal")
def _net006(ctx: RuleContext) -> Iterator[Finding]:
    if not ctx.bench_text:
        return
    for sig, count in scan_bench_drivers(ctx.bench_text).items():
        if count > 1:
            yield (
                sig,
                f"signal has {count} drivers in the .bench source",
                "keep a single driver per signal",
            )


@rule("NET007", "error", "empty interface")
def _net007(ctx: RuleContext) -> Iterator[Finding]:
    if not ctx.netlist.inputs:
        yield (
            "circuit",
            "circuit has no primary inputs",
            "declare at least one INPUT(...)",
        )
    if not ctx.netlist.outputs:
        yield (
            "circuit",
            "circuit has no primary outputs",
            "declare at least one OUTPUT(...)",
        )


def scan_bench_drivers(bench_text: str) -> Dict[str, int]:
    """Driver counts per signal from raw ``.bench`` source text.

    The :class:`~repro.netlist.netlist.Netlist` container structurally
    rejects a second driver at ``add_cell`` time, so multiply-driven
    signals can only be observed on the source text *before* parsing —
    which is why ``NET006`` needs this pre-scan.

    Example:
        >>> scan_bench_drivers("INPUT(a)\\nx = NOT(a)\\nx = BUF(a)\\n")["x"]
        2
    """
    counts: Dict[str, int] = {}
    for raw in bench_text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        upper = line.upper()
        if upper.startswith("INPUT(") or upper.startswith("INPUT ("):
            sig = line[line.index("(") + 1 :].rstrip(")").strip()
            counts[sig] = counts.get(sig, 0) + 1
        elif "=" in line and not upper.startswith("OUTPUT"):
            sig = line.split("=", 1)[0].strip()
            if sig:
                counts[sig] = counts.get(sig, 0) + 1
    return counts


# ----------------------------------------------------------------------
# GRF: graph preconditions
# ----------------------------------------------------------------------
@rule("GRF001", "error", "combinational loop", paper_ref="Table 2 STEP 1")
def _grf001(ctx: RuleContext) -> Iterator[Finding]:
    net = ctx.netlist
    fan = ctx.fanout
    comb = [c.output for c in net.cells() if not c.is_dff]
    comb_set = set(comb)
    adj: Dict[str, List[str]] = {}
    for out in comb:
        succs = [
            r.output
            for r in fan.get(out, ())
            if not r.is_dff and r.output in comb_set
        ]
        adj[out] = succs

    # Iterative Tarjan over the register-free cell graph.
    index: Dict[str, int] = {}
    low: Dict[str, int] = {}
    on_stack: Set[str] = set()
    stack: List[str] = []
    counter = 0
    for root in comb:
        if root in index:
            continue
        work = [(root, iter(adj[root]))]
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, it = work[-1]
            advanced = False
            for succ in it:
                if succ not in index:
                    index[succ] = low[succ] = counter
                    counter += 1
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, iter(adj[succ])))
                    advanced = True
                    break
                if succ in on_stack:
                    low[node] = min(low[node], index[succ])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                comp: List[str] = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.append(w)
                    if w == node:
                        break
                if len(comp) > 1 or node in adj[node]:
                    shown = ", ".join(sorted(comp)[:8])
                    more = "" if len(comp) <= 8 else f", +{len(comp) - 8}"
                    yield (
                        min(comp),
                        f"combinational loop through {len(comp)} "
                        f"gate(s): {shown}{more}",
                        "insert a DFF on the loop or fix the feedback",
                    )


@rule("GRF002", "warning", "dangling cone", paper_ref="Table 2 STEP 1")
def _grf002(ctx: RuleContext) -> Iterator[Finding]:
    net = ctx.netlist
    if not net.outputs:
        return  # NET007 carries this case
    fan = ctx.fanout
    live: Set[str] = set()
    stack = [
        net.driver(sig).output
        for sig in net.outputs
        if net.has_signal(sig) and net.driver(sig) is not None
    ]
    while stack:
        out = stack.pop()
        if out in live:
            continue
        live.add(out)
        cell = net.cell(out)
        for sig in cell.inputs:
            if net.has_signal(sig) and not net.is_input(sig):
                drv = net.driver(sig)
                if drv is not None and drv.output not in live:
                    stack.append(drv.output)
    for cell in net.cells():
        if cell.output in live:
            continue
        if fan.get(cell.output):  # dangling singletons are NET001
            yield (
                cell.output,
                "cell lies in a cone unreachable from any primary "
                "output (dead logic)",
                "add an observation point or prune the cone",
            )


# ----------------------------------------------------------------------
# RET: retiming-legality preconditions
# ----------------------------------------------------------------------
@rule("RET001", "error", "register-free SCC", paper_ref="Corollary 2")
def _ret001(ctx: RuleContext) -> Iterator[Finding]:
    scc_index = ctx.scc_index
    if scc_index is None:
        return
    for info in scc_index.sccs():
        if info.register_count == 0:
            yield (
                f"scc{info.scc_id}",
                f"cycle of {info.size} node(s) carries no register; "
                "retiming preserves cycle register counts (Corollary 2) "
                "so no legal retiming exists",
                "break the loop or register it",
            )


@rule(
    "RET002",
    "info",
    "cut candidates exceed f(λ)",
    paper_ref="Corollary 2 / Eq. 6",
)
def _ret002(ctx: RuleContext) -> Iterator[Finding]:
    scc_index = ctx.scc_index
    if scc_index is None:
        return
    for info in scc_index.sccs():
        n_candidates = len(info.internal_nets)
        if info.register_count > 0 and n_candidates > info.register_count:
            yield (
                f"scc{info.scc_id}",
                f"{n_candidates} candidate cut nets but only "
                f"f(λ)={info.register_count} register(s); if more than "
                f"f(λ) cuts are taken the Bellman–Ford solver must "
                "reject some (negative-weight cycle) and those cuts "
                "fall back to MUX-shared A_CELLs",
                "",
            )


# ----------------------------------------------------------------------
# BUD: Eq. 5/6 budget feasibility
# ----------------------------------------------------------------------
@rule("BUD001", "error", "cell boundary fan-in above l_k", paper_ref="Eq. 5")
def _bud001(ctx: RuleContext) -> Iterator[Finding]:
    net = ctx.netlist
    lk = ctx.config.lk
    for cell in net.cells():
        if cell.is_dff:
            continue
        boundary = set()
        for sig in set(cell.inputs):
            if not net.has_signal(sig):
                continue
            if net.is_input(sig):
                boundary.add(sig)
            else:
                drv = net.driver(sig)
                if drv is not None and drv.is_dff:
                    boundary.add(sig)
        if len(boundary) > lk:
            yield (
                cell.output,
                f"cell reads {len(boundary)} distinct PI/DFF signals; "
                f"they are inputs of any cluster containing it, so "
                f"ι ≥ {len(boundary)} > l_k={lk} for every partition",
                f"raise l_k to ≥ {len(boundary)}",
            )


@rule("BUD002", "warning", "cell fan-in above l_k", paper_ref="Eq. 5")
def _bud002(ctx: RuleContext) -> Iterator[Finding]:
    net = ctx.netlist
    lk = ctx.config.lk
    for cell in net.cells():
        if cell.is_dff:
            continue
        distinct = {s for s in cell.inputs if net.has_signal(s)}
        boundary = {
            s
            for s in distinct
            if net.is_input(s)
            or (net.driver(s) is not None and net.driver(s).is_dff)
        }
        if len(distinct) > lk >= len(boundary):
            yield (
                cell.output,
                f"cell reads {len(distinct)} distinct signals "
                f"(l_k={lk}); it only fits a cluster that absorbs "
                f"{len(distinct) - lk}+ of its drivers",
                "",
            )


@rule(
    "BUD003",
    "error",
    "Eq. 6 cut budget unsatisfiable",
    paper_ref="Eq. 6",
)
def _bud003(ctx: RuleContext) -> Iterator[Finding]:
    scc_index = ctx.scc_index
    cg = ctx.cg
    if scc_index is None or cg is None:
        return
    from .precheck import budget_prechecks

    beta = ctx.config.beta
    for bound in budget_prechecks(cg, scc_index, ctx.config.lk):
        if bound.feasible(beta):
            continue
        need = (
            "unsplittable component"
            if bound.min_cuts == float("inf")
            else f"≥ {int(bound.min_cuts)} charged cut(s)"
        )
        yield (
            f"scc{bound.scc_id}",
            f"SCC needs {need} to reach ι ≤ l_k={ctx.config.lk} "
            f"(max b(C)={bound.max_boundary_inputs} over "
            f"{bound.n_components} component(s)) but Eq. 6 allows only "
            f"β·f(λ) = {beta}×{bound.register_count} = "
            f"{bound.budget(beta)}",
            "raise β or l_k",
        )


# ----------------------------------------------------------------------
# SIM: bit-parallel simulability
# ----------------------------------------------------------------------
@rule("SIM001", "error", "unsupported cell type")
def _sim001(ctx: RuleContext) -> Iterator[Finding]:
    for cell in ctx.netlist.cells():
        if cell.is_dff:
            continue
        if cell.gtype not in GATE_EVALUATORS:
            yield (
                cell.output,
                f"gate type {getattr(cell.gtype, 'name', cell.gtype)} "
                "has no bit-parallel evaluator",
                "map the cell onto supported primitives",
            )


@rule("SIM002", "warning", "l_k too wide for pseudo-exhaustive test")
def _sim002(ctx: RuleContext) -> Iterator[Finding]:
    lk = ctx.config.lk
    if lk > MAX_PRACTICAL_LK:
        yield (
            "config",
            f"l_k={lk} implies 2^{lk} patterns per cone "
            f"(> 2^{MAX_PRACTICAL_LK}); test application time is "
            "impractical for the bit-parallel session",
            f"keep l_k ≤ {MAX_PRACTICAL_LK}",
        )
