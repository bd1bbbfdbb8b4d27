"""Eq. 6 budget-feasibility prechecks (rule ``BUD003``).

``Make_Set`` charges every cut of an SCC-internal net against the SCC's
Eq. 6 budget ``χ(λ) ≤ β·f(λ)``; when the budget runs out the remaining
nets are pinned traversable, welding the region into one cluster whose
input count ι can then never drop below ``l_k`` — the run ends in
``InfeasiblePartitionError`` after doing all the work.  This module
derives a *sound lower bound* on the number of charged cuts any legal
partition needs, so provably doomed ``(l_k, β)`` points are rejected
before the pipeline burns a sweep point on them.

The bound, per non-trivial SCC ``λ`` (proof sketch — each step only ever
*underestimates* the true requirement):

1. Build the traversal hypergraph ``H_λ``: vertices are λ's
   combinational nodes; hyperedges are λ-internal, comb-sourced nets,
   connecting the source to its comb sinks inside λ.  Two adjacent
   vertices of an un-cut hyperedge always end in the same cluster
   (``Make_Set`` DFS crosses exactly these nets), and cutting such a net
   is always charged to λ's budget.
2. For each connected component ``C`` of ``H_λ``, let ``b(C)`` be the
   number of distinct boundary signals (primary-input- or DFF-driven
   nets) feeding ``C``'s nodes.  Every one of them is an input of at
   least one cluster containing a ``C`` node, and a cluster holds at
   most ``l_k`` inputs, so ``C``'s nodes must spread over at least
   ``k_min = ⌈b(C)/l_k⌉`` clusters.
3. Splitting ``C`` into ``k_min`` parts requires cutting hyperedges;
   removing one hyperedge with ``s`` in-component comb sinks raises the
   part count by at most ``s``.  Hence at least
   ``⌈(k_min − 1)/max_s(C)⌉`` charged cuts — or no legal partition at
   all when ``C`` has no cuttable net (``min_cuts`` is ``inf``).
4. Components are vertex- and edge-disjoint, so the per-component
   bounds add: ``χ_min(λ) = Σ_C cuts(C)``.  If ``χ_min(λ) > β·f(λ)``
   the point is infeasible for *any* distance assignment — the bound
   never depends on saturation flows.

``tests/analysis/test_budget_precheck.py`` checks the soundness claim
against brute-force enumeration of every cut subset on small circuits.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, inf
from typing import Dict, List, Sequence, Set

from ..graphs.csr import KIND_COMB, CompiledGraph

__all__ = ["SCCBudgetBound", "scc_cut_lower_bound", "budget_prechecks"]


@dataclass(frozen=True)
class SCCBudgetBound:
    """Eq. 6 feasibility verdict for one SCC ``λ``.

    Attributes:
        scc_id: the SCC's id in the :class:`~repro.graphs.scc.SCCIndex`.
        register_count: ``f(λ)`` — registers available to retiming.
        min_cuts: sound lower bound on charged cuts (``inf`` when some
            component cannot be split at all but must be).
        n_components: connected components of the traversal hypergraph.
        max_boundary_inputs: largest ``b(C)`` over the components.
    """

    scc_id: int
    register_count: int
    min_cuts: float
    n_components: int
    max_boundary_inputs: int

    def budget(self, beta: int) -> int:
        """The Eq. 6 budget ``β·f(λ)`` for this SCC."""
        return beta * self.register_count

    def feasible(self, beta: int) -> bool:
        """``True`` unless ``min_cuts`` provably exceeds the budget."""
        return self.min_cuts <= self.budget(beta)


def _find(parent: List[int], x: int) -> int:
    root = x
    while parent[root] != root:
        root = parent[root]
    while parent[x] != root:
        parent[x], x = root, parent[x]
    return root


def scc_cut_lower_bound(
    cg: CompiledGraph, scc_nodes: Sequence[str], lk: int, scc_id: int = 0
) -> SCCBudgetBound:
    """Compute the charged-cut lower bound for one SCC.

    Args:
        cg: the circuit's :class:`~repro.graphs.csr.CompiledGraph`
            (shared with the pipeline — nothing is rebuilt here).
        scc_nodes: the SCC's node names (``SCCInfo.nodes``).
        lk: the cluster input limit ``l_k``.
        scc_id: id stamped into the returned bound (reporting only).
    """
    node_id = cg.node_id
    kind = cg.kind
    in_start = cg.in_start
    in_net_ids = cg.in_net_ids
    out_start = cg.out_start
    out_net_ids = cg.out_net_ids
    sink_start = cg.sink_start
    sink_ids = cg.sink_ids
    boundary_net = cg.boundary_net
    node_ep = cg.node_ep
    ep = cg.next_epoch()

    member_ids = [node_id[n] for n in scc_nodes]
    n_regs = 0
    comb_ids: List[int] = []
    for i in member_ids:
        node_ep[i] = ep
        if kind[i] == KIND_COMB:
            comb_ids.append(i)
        else:
            n_regs += 1

    if not comb_ids:
        return SCCBudgetBound(scc_id, n_regs, 0.0, 0, 0)

    local = {i: k for k, i in enumerate(comb_ids)}
    parent = list(range(len(comb_ids)))

    # Hyperedges: comb-sourced nets of comb members with >=1 comb sink
    # inside the SCC.  (A net sourced inside the SCC is internal iff it
    # has a sink inside; restricting to comb sinks keeps exactly the
    # nets the Make_Set DFS can cross.)
    edges: List[tuple] = []  # (source_local, [sink_locals])
    for i in comb_ids:
        src_local = local[i]
        for p in range(out_start[i], out_start[i + 1]):
            ni = out_net_ids[p]
            comb_sinks: List[int] = []
            for q in range(sink_start[ni], sink_start[ni + 1]):
                s = sink_ids[q]
                if node_ep[s] == ep and kind[s] == KIND_COMB:
                    comb_sinks.append(local[s])
            if not comb_sinks:
                continue
            edges.append((src_local, comb_sinks))
            for s_local in comb_sinks:
                ra, rb = _find(parent, src_local), _find(parent, s_local)
                if ra != rb:
                    parent[rb] = ra

    # Per-component boundary-input sets and max cut arity.
    b_inputs: Dict[int, Set[int]] = {}
    max_arity: Dict[int, int] = {}
    for i in comb_ids:
        comp = _find(parent, local[i])
        bucket = b_inputs.setdefault(comp, set())
        for p in range(in_start[i], in_start[i + 1]):
            ni = in_net_ids[p]
            if boundary_net[ni]:
                bucket.add(ni)
    for src_local, comb_sinks in edges:
        comp = _find(parent, src_local)
        # removing the net splits off at most len(comb_sinks) extra parts
        arity = len(comb_sinks)
        if arity > max_arity.get(comp, 0):
            max_arity[comp] = arity

    total: float = 0.0
    max_b = 0
    for comp, bucket in b_inputs.items():
        b = len(bucket)
        if b > max_b:
            max_b = b
        k_min = -(-b // lk) if lk > 0 else (2 if b else 1)
        if k_min <= 1:
            continue
        arity = max_arity.get(comp, 0)
        if arity == 0:
            total = inf
            break
        total += ceil((k_min - 1) / arity)

    return SCCBudgetBound(
        scc_id=scc_id,
        register_count=n_regs,
        min_cuts=total,
        n_components=len(b_inputs),
        max_boundary_inputs=max_b,
    )


def budget_prechecks(
    cg: CompiledGraph, scc_index, lk: int
) -> List[SCCBudgetBound]:
    """Lower bounds for every non-trivial SCC of the circuit."""
    return [
        scc_cut_lower_bound(cg, info.nodes, lk, scc_id=info.scc_id)
        for info in scc_index.sccs()
    ]
