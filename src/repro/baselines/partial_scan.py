"""Partial-scan baseline (MFVS selection, refs [2][3] of the paper).

The retiming-for-testability line of work before PPET selected a
*minimum feedback vertex set* (MFVS) of the flip-flops: scanning those
FFs breaks every sequential cycle, so the rest of the machine is
feed-forward and combinational ATPG suffices.  We implement:

* the register dependency graph (DFF → DFF through combinational logic);
* a greedy approximate MFVS (exact MFVS is NP-hard);
* the scan-area overhead model: a scannable DFF adds a 2-to-1 MUX
  (3 units = 0.3 × DFF) on its data input.

This gives the area baseline our benches compare PPET's CBIT overhead
against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Set

from ..graphs.digraph import CircuitGraph, NodeKind
from ..graphs.scc import strongly_connected_components
from ..netlist.gates import GateType, gate_area_units
from ..netlist.netlist import Netlist

__all__ = [
    "SCAN_MUX_UNITS",
    "register_dependency_graph",
    "greedy_mfvs",
    "PartialScanResult",
    "partial_scan_baseline",
]

#: Extra area per scannable DFF: one 2-to-1 MUX on the data input.
SCAN_MUX_UNITS = gate_area_units(GateType.MUX2, 3)


def register_dependency_graph(graph: CircuitGraph) -> CircuitGraph:
    """Collapse combinational logic: edge ``r1 → r2`` iff a purely
    combinational path leads from register ``r1``'s output to ``r2``'s
    data input."""
    dep = CircuitGraph(f"{graph.name}_regdep")
    regs = graph.register_nodes()
    for r in regs:
        dep.add_node(r, NodeKind.REGISTER)
    for r in regs:
        # forward BFS through combinational nodes
        reached: Set[str] = set()
        stack = [r]
        seen = {r}
        while stack:
            node = stack.pop()
            for net in graph.out_nets(node):
                for sink in net.sinks:
                    if sink in seen:
                        continue
                    seen.add(sink)
                    kind = graph.kind(sink)
                    if kind is NodeKind.REGISTER:
                        reached.add(sink)
                    elif kind is NodeKind.COMB:
                        stack.append(sink)
        if reached:
            dep.add_net(f"dep_{r}", r, sorted(reached))
    return dep


def greedy_mfvs(dep: CircuitGraph) -> Set[str]:
    """Approximate minimum feedback vertex set of the dependency graph.

    Repeatedly removes the highest-degree node of the largest remaining
    SCC until no cycles remain.  The classic greedy 'break the busiest
    register' heuristic used by partial-scan selectors.
    """
    removed: Set[str] = set()

    def live_successors(node: str) -> List[str]:
        out = []
        for net in dep.out_nets(node):
            out.extend(s for s in net.sinks if s not in removed)
        return out

    while True:
        # SCCs of the remaining subgraph
        comps = []
        sub_nodes = [n for n in dep.nodes() if n not in removed]
        if not sub_nodes:
            break
        index = {}
        # reuse Tarjan on a filtered view via a tiny adapter graph
        view = CircuitGraph("view")
        for n in sub_nodes:
            view.add_node(n, NodeKind.REGISTER)
        for n in sub_nodes:
            succ = [s for s in live_successors(n)]
            if succ:
                view.add_net(f"v_{n}", n, succ)
        cyclic = []
        for comp in strongly_connected_components(view):
            if len(comp) > 1:
                cyclic.append(comp)
            elif comp[0] in view.successors(comp[0]):
                cyclic.append(comp)
        if not cyclic:
            break
        biggest = max(cyclic, key=len)
        members = set(biggest)
        victim = max(
            biggest,
            key=lambda n: sum(1 for s in view.successors(n) if s in members)
            + sum(1 for p in view.predecessors(n) if p in members),
        )
        removed.add(victim)
    return removed


@dataclass(frozen=True)
class PartialScanResult:
    """Partial-scan area accounting for one circuit."""

    circuit: str
    n_dffs: int
    scanned: frozenset
    circuit_area_units: int

    @property
    def n_scanned(self) -> int:
        return len(self.scanned)

    @property
    def scan_area_units(self) -> int:
        return self.n_scanned * SCAN_MUX_UNITS

    @property
    def pct_overhead(self) -> float:
        """Scan hardware as a share of total area (Table-12-comparable)."""
        total = self.circuit_area_units + self.scan_area_units
        return 100.0 * self.scan_area_units / total if total else 0.0


def partial_scan_baseline(
    netlist: Netlist, graph: CircuitGraph
) -> PartialScanResult:
    """Select an approximate-MFVS scan set and price it.

    Note the comparison caveat our benches spell out: partial scan only
    restores *testability* (an external ATPG still supplies patterns);
    PPET buys full built-in self-test.  The paper's pitch is that PPET's
    retimed overhead approaches partial scan's while delivering BIST.
    """
    dep = register_dependency_graph(graph)
    scanned = greedy_mfvs(dep)
    return PartialScanResult(
        circuit=netlist.name,
        n_dffs=sum(1 for _ in netlist.dff_cells()),
        scanned=frozenset(scanned),
        circuit_area_units=netlist.area_units(),
    )
