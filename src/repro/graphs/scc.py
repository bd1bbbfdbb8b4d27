"""Strongly connected components (Tarjan, iterative) and the SCC index.

Merced's STEP 2 (Table 2) identifies the SCCs of ``G`` because legal
retiming cannot change the number of registers on any directed cycle
(Corollary 2).  The :class:`SCCIndex` therefore records, per non-trivial
SCC ``λ``: its nodes, its register count ``f(λ)`` (existing DFFs available
to retiming), and its internal nets (the candidate cut positions whose
count ``χ(λ)`` is budgeted by Eq. 6).

Both the component search and the index construction run on the
:class:`~repro.graphs.csr.CompiledGraph` integer arrays; the original
string-keyed Tarjan is retained as
:func:`strongly_connected_components_reference` and the two are held
bit-identical (same component order, same node order within each
component) by ``tests/graphs/test_csr_equiv.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from .csr import KIND_REGISTER, CompiledGraph, compile_graph
from .digraph import CircuitGraph

__all__ = [
    "strongly_connected_components",
    "strongly_connected_components_reference",
    "SCCInfo",
    "SCCIndex",
]


def _scc_id_components(cg: CompiledGraph) -> List[List[int]]:
    """Tarjan over the compiled successor CSR, components as node ids.

    Roots are tried in id order (graph insertion order) and successors in
    CSR order — the exact orders the reference implementation uses — so
    emission order and within-component order match it bit for bit.
    """
    n = cg.n_nodes
    succ_start = cg.succ_start
    succ_ids = cg.succ_ids
    index = [-1] * n
    lowlink = [0] * n
    on_stack = bytearray(n)
    stack: List[int] = []
    counter = 0
    result: List[List[int]] = []

    for root in range(n):
        if index[root] != -1:
            continue
        index[root] = lowlink[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = 1
        work: List[List[int]] = [[root, succ_start[root]]]  # [node, ptr]
        while work:
            frame = work[-1]
            node = frame[0]
            p = frame[1]
            end = succ_start[node + 1]
            advanced = False
            while p < end:
                s = succ_ids[p]
                p += 1
                if index[s] == -1:
                    index[s] = lowlink[s] = counter
                    counter += 1
                    stack.append(s)
                    on_stack[s] = 1
                    frame[1] = p
                    work.append([s, succ_start[s]])
                    advanced = True
                    break
                if on_stack[s] and index[s] < lowlink[node]:
                    lowlink[node] = index[s]
            if advanced:
                continue
            work.pop()
            ll = lowlink[node]
            if work:
                parent = work[-1][0]
                if ll < lowlink[parent]:
                    lowlink[parent] = ll
            if ll == index[node]:
                comp: List[int] = []
                while True:
                    w = stack.pop()
                    on_stack[w] = 0
                    comp.append(w)
                    if w == node:
                        break
                result.append(comp)
    return result


def strongly_connected_components(graph: CircuitGraph) -> List[List[str]]:
    """Tarjan's algorithm, iterative (safe for >10^5-node circuits).

    Returns the SCCs as lists of node names, in reverse topological order
    of the condensation (standard Tarjan emission order).  Runs on the
    compiled CSR arrays; output is bit-identical to
    :func:`strongly_connected_components_reference`.
    """
    cg = compile_graph(graph)
    names = cg.node_names
    return [[names[i] for i in comp] for comp in _scc_id_components(cg)]


def strongly_connected_components_reference(
    graph: CircuitGraph,
) -> List[List[str]]:
    """Original string-keyed Tarjan, kept as the equivalence oracle."""
    index_counter = 0
    index: Dict[str, int] = {}
    lowlink: Dict[str, int] = {}
    on_stack: Set[str] = set()
    stack: List[str] = []
    result: List[List[str]] = []

    for root in graph.nodes():
        if root in index:
            continue
        work: List[Tuple[str, Iterator[str]]] = [
            (root, iter(graph.successors(root)))
        ]
        index[root] = lowlink[root] = index_counter
        index_counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, it = work[-1]
            advanced = False
            for succ in it:
                if succ not in index:
                    index[succ] = lowlink[succ] = index_counter
                    index_counter += 1
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, iter(graph.successors(succ))))
                    advanced = True
                    break
                if succ in on_stack:
                    lowlink[node] = min(lowlink[node], index[succ])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == index[node]:
                comp: List[str] = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.append(w)
                    if w == node:
                        break
                result.append(comp)
    return result


@dataclass(frozen=True)
class SCCInfo:
    """One non-trivial strongly connected component ``λ``."""

    scc_id: int
    nodes: Tuple[str, ...]
    register_count: int  # f(λ): DFF nodes inside the SCC
    internal_nets: Tuple[str, ...]  # nets with source and ≥1 sink in λ

    @property
    def size(self) -> int:
        return len(self.nodes)

    def cut_budget(self, beta: int) -> int:
        """Maximum cuts allowed by Eq. 6: ``β × f(λ)``."""
        return beta * self.register_count


class SCCIndex:
    """Net → SCC lookup plus each SCC's registers and internal nets.

    Only *non-trivial* SCCs are tracked: components with more than one node,
    or a single node with a self net (a cell feeding itself through one
    net).  Nets internal to no cycle map to ``None``.

    The index is read-only once built.  Cut charges ``c(λ)`` belong to
    whoever charges them (:class:`~repro.partition.make_set.CutState`,
    the optimizer's move engine), so one index can serve the lint gate,
    area accounting and the optimizer alike.
    """

    def __init__(self, graph: CircuitGraph):
        self.graph = graph
        self._sccs: List[SCCInfo] = []
        self._net_to_scc: Dict[str, int] = {}
        self._build()

    def _build(self) -> None:
        cg = compile_graph(self.graph)
        kind = cg.kind
        out_start = cg.out_start
        out_net_ids = cg.out_net_ids
        sink_start = cg.sink_start
        sink_ids = cg.sink_ids
        node_names = cg.node_names
        net_names = cg.net_names
        node_ep = cg.node_ep
        for comp in _scc_id_components(cg):
            if len(comp) == 1:
                node = comp[0]
                has_self = False
                for p in range(out_start[node], out_start[node + 1]):
                    ni = out_net_ids[p]
                    for q in range(sink_start[ni], sink_start[ni + 1]):
                        if sink_ids[q] == node:
                            has_self = True
                            break
                    if has_self:
                        break
                if not has_self:
                    continue
            ep = cg.next_epoch()
            for node in comp:
                node_ep[node] = ep
            scc_id = len(self._sccs)
            internal: List[str] = []
            n_regs = 0
            for node in comp:
                if kind[node] == KIND_REGISTER:
                    n_regs += 1
                for p in range(out_start[node], out_start[node + 1]):
                    ni = out_net_ids[p]
                    for q in range(sink_start[ni], sink_start[ni + 1]):
                        if node_ep[sink_ids[q]] == ep:
                            internal.append(net_names[ni])
                            break
            info = SCCInfo(
                scc_id=scc_id,
                nodes=tuple(node_names[i] for i in comp),
                register_count=n_regs,
                internal_nets=tuple(internal),
            )
            self._sccs.append(info)
            for net_name in internal:
                self._net_to_scc[net_name] = scc_id

    # ------------------------------------------------------------------
    def sccs(self) -> Sequence[SCCInfo]:
        """All non-trivial SCCs."""
        return tuple(self._sccs)

    def scc_of_net(self, net_name: str) -> Optional[SCCInfo]:
        """The SCC a net is internal to, or ``None`` for tree/cross nets."""
        idx = self._net_to_scc.get(net_name)
        return None if idx is None else self._sccs[idx]

    def net_on_scc(self, net_name: str) -> bool:
        return net_name in self._net_to_scc

    def registers_on_sccs(self) -> int:
        """Total DFFs sitting on cycles (the paper's "DFFs on SCC" column)."""
        return sum(s.register_count for s in self._sccs)

    def __len__(self) -> int:
        return len(self._sccs)
