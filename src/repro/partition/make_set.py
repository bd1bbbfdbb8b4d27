"""``Make_Set`` and the modified DFS (Tables 5, 6, 7 of the paper).

``Make_Set`` groups a node list into clusters by depth-first search over
*traversable* nets.  A net is traversable unless it is a cut: nets whose
congestion distance reaches the current ``boundary`` are cut, **subject to
the per-SCC budget of Eq. 6** — once an SCC ``λ`` has absorbed
``β × f(λ)`` cuts, its remaining nets are pinned traversable by zeroing
their distance (Table 7, STEP 2.1.2.1), which welds the rest of the SCC
into a single cluster.

Deviations from the literal pseudo-code, per DESIGN.md:

* traversal is undirected (clusters are connected components), so the
  grouping is independent of seed choice;
* nets sourced by primary inputs or DFFs are *permanent free boundaries*:
  never traversed, never charged as cuts — a register already sits there.

The DFS runs on :class:`~repro.graphs.csr.CompiledGraph` integer arrays
with epoch-stamped membership/visited flags, so repeated splits of the
same region never rebuild Python sets.  :func:`make_set_reference` keeps
the original string-keyed implementation as the equivalence oracle
(``tests/partition/test_kernel_equiv.py`` holds the two bit-identical).
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, List, Set

from ..graphs.csr import KIND_INPUT, compile_graph
from ..graphs.digraph import CircuitGraph, Net, NodeKind
from ..graphs.scc import SCCIndex
from ..perf import count as perf_count

__all__ = ["CutState", "make_set", "make_set_reference"]


class CutState:
    """Mutable cut bookkeeping shared across ``Make_Set`` invocations.

    Tracks the cut registry ``χ`` and the nets pinned traversable after a
    budget exhaustion as per-net-id byte flags (``cut_b``/``forced_b``,
    indexed like ``cg.net_names``), and the per-SCC charges ``c(λ)``
    (``scc_cuts``, indexed like ``scc_index.sccs()``).  ``cut`` and
    ``forced`` list the flagged net names for callers.

    Distances are read from, and pinned in, the graph's compiled view
    (``cg.dist``), where ``Saturate_Network`` left them.
    """

    def __init__(self, graph: CircuitGraph, scc_index: SCCIndex, beta: int):
        self.graph = graph
        self.scc_index = scc_index
        self.beta = beta
        self.budget_exhaustions = 0
        cg = compile_graph(graph)
        self.cg = cg
        m = cg.n_nets
        self.cut_b = bytearray(m)
        self.forced_b = bytearray(m)
        infos = list(scc_index.sccs())
        self._scc_infos = infos
        self._budget = [info.cut_budget(beta) for info in infos]
        self.scc_cuts: List[int] = [0] * len(infos)
        #: per-net SCC index into ``_scc_infos`` (-1 = not on any SCC)
        self.net_scc: List[int] = [-1] * m
        for k, info in enumerate(infos):
            net_id = cg.net_id
            for name in info.internal_nets:
                self.net_scc[net_id[name]] = k

    @property
    def cut(self) -> FrozenSet[str]:
        """Names of the nets in the cut registry ``χ``."""
        return self._flagged(self.cut_b)

    @property
    def forced(self) -> FrozenSet[str]:
        """Names of the nets pinned traversable by a budget exhaustion."""
        return self._flagged(self.forced_b)

    def _flagged(self, flags: bytearray) -> FrozenSet[str]:
        names = self.cg.net_names
        return frozenset(names[i] for i, f in enumerate(flags) if f)

    # ------------------------------------------------------------------
    def traversable(self, net: Net, boundary: float) -> bool:
        """Decide (and record) whether DFS may cross ``net``.

        Implements Table 7 STEP 2: at or above the boundary the net is cut
        if its SCC still has budget (or it is not on an SCC); otherwise the
        SCC's remaining nets are pinned traversable.
        """
        return self.traversable_id(self.cg.net_id[net.name], boundary)

    def traversable_id(self, i: int, boundary: float) -> bool:
        """Compiled :meth:`traversable` on a net id."""
        cg = self.cg
        if cg.boundary_net[i]:
            return False  # free boundary: cluster ends here, no cut charged
        if self.cut_b[i]:
            return False
        if self.forced_b[i]:
            return True
        d = cg.dist[i]
        if d < boundary or d <= 0.0:
            return True
        k = self.net_scc[i]
        if k < 0:
            self.cut_b[i] = 1
            return False
        if self.scc_cuts[k] < self._budget[k]:
            self.scc_cuts[k] += 1
            self.cut_b[i] = 1
            return False
        # Budget exhausted: pin the SCC's remaining nets traversable
        # (Table 7 STEP 2.1.2.1 sets their distance to an insignificant 0).
        self.budget_exhaustions += 1
        net_id = cg.net_id
        dist = cg.dist
        for name in self._scc_infos[k].internal_nets:
            j = net_id[name]
            if not self.cut_b[j]:
                self.forced_b[j] = 1
                dist[j] = 0.0
        return True


def make_set(
    graph: CircuitGraph,
    nodes: Iterable[str],
    boundary: float,
    state: CutState,
) -> List[Set[str]]:
    """Group ``nodes`` into clusters below the congestion ``boundary``.

    Args:
        graph: the saturated circuit graph.
        nodes: candidate members (register/combinational nodes). Primary
            inputs are ignored if present.
        boundary: current distance threshold (Table 4's Extract_Max value).
        state: shared :class:`CutState`, built on ``graph``.

    Returns:
        Disjoint node sets (connected components over traversable nets),
        in discovery order.  Bit-identical to :func:`make_set_reference`
        (same groups, same order, same cut/forced side effects).
    """
    cg = state.cg
    kind = cg.kind
    node_id = cg.node_id
    node_names = cg.node_names
    name_rank = cg.name_rank
    out_start = cg.out_start
    out_net_ids = cg.out_net_ids
    in_start = cg.in_start
    in_net_ids = cg.in_net_ids
    net_src = cg.net_src
    sink_start = cg.sink_start
    sink_ids = cg.sink_ids
    member_ep = cg.node_ep  # stamped = eligible member
    assigned_ep = cg.node_ep2  # stamped = already claimed by a group
    ep = cg.next_epoch()

    member_ids: List[int] = []
    for n in nodes:
        i = node_id[n]
        if kind[i] != KIND_INPUT and member_ep[i] != ep:
            member_ep[i] = ep
            member_ids.append(i)
    # Deterministic seed order: str hashing is salted per process, so raw
    # set iteration would make cluster numbering (and SCC budget charging
    # order) vary between runs.  Sorting ids by name rank reproduces
    # sorted(names) exactly.
    member_ids.sort(key=name_rank.__getitem__)

    traversable_id = state.traversable_id
    groups: List[Set[str]] = []
    visits = 0
    for seed in member_ids:
        if assigned_ep[seed] == ep:
            continue
        group_ids: List[int] = []
        stack = [seed]
        assigned_ep[seed] = ep
        while stack:
            node = stack.pop()
            group_ids.append(node)
            visits += 1
            for p in range(out_start[node], out_start[node + 1]):
                ni = out_net_ids[p]
                if not traversable_id(ni, boundary):
                    continue
                s = net_src[ni]
                if member_ep[s] == ep and assigned_ep[s] != ep:
                    assigned_ep[s] = ep
                    stack.append(s)
                for q in range(sink_start[ni], sink_start[ni + 1]):
                    s = sink_ids[q]
                    if member_ep[s] == ep and assigned_ep[s] != ep:
                        assigned_ep[s] = ep
                        stack.append(s)
            for p in range(in_start[node], in_start[node + 1]):
                ni = in_net_ids[p]
                if not traversable_id(ni, boundary):
                    continue
                s = net_src[ni]
                if member_ep[s] == ep and assigned_ep[s] != ep:
                    assigned_ep[s] = ep
                    stack.append(s)
                for q in range(sink_start[ni], sink_start[ni + 1]):
                    s = sink_ids[q]
                    if member_ep[s] == ep and assigned_ep[s] != ep:
                        assigned_ep[s] = ep
                        stack.append(s)
        groups.append({node_names[i] for i in group_ids})
    perf_count("dfs_visits", visits)
    return groups


def make_set_reference(
    graph: CircuitGraph,
    nodes: Iterable[str],
    boundary: float,
    state: CutState,
) -> List[Set[str]]:
    """Original string-keyed ``Make_Set``, kept as the equivalence oracle."""
    members = {n for n in nodes if graph.kind(n) is not NodeKind.INPUT}
    assigned: Set[str] = set()
    groups: List[Set[str]] = []
    for seed in sorted(members):
        if seed in assigned:
            continue
        group: Set[str] = set()
        stack = [seed]
        assigned.add(seed)
        while stack:
            node = stack.pop()
            group.add(node)
            for net in graph.out_nets(node) + graph.in_nets(node):
                if not state.traversable(net, boundary):
                    continue
                for neighbor in (net.source,) + net.sinks:
                    if (
                        neighbor in members
                        and neighbor not in assigned
                    ):
                        assigned.add(neighbor)
                        stack.append(neighbor)
        groups.append(group)
    return groups
