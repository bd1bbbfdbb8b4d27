"""Soundness of the Eq. 6 budget precheck (rule ``BUD003``).

The bound claims: any legal partition of an SCC needs at least
``min_cuts`` charged cuts.  Two independent checks:

* **brute force** — enumerate every cut subset smaller than the bound on
  the SCC's traversal hypergraph (rebuilt here from the netlist, not
  from the implementation's CSR arrays) and verify each one leaves a
  forced group with more than ``l_k`` boundary inputs;
* **end to end** — whenever the precheck declares a circuit infeasible
  at ``(l_k, β)``, the real ``make_group`` partitioner must indeed weld
  an oversized cluster.
"""

from itertools import combinations
from math import inf

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.analysis.precheck import budget_prechecks, scc_cut_lower_bound
from repro.circuits.generator import generate_circuit
from repro.circuits.profiles import CircuitProfile
from repro.config import MercedConfig
from repro.errors import NetlistError
from repro.graphs import SCCIndex, build_circuit_graph
from repro.graphs.csr import compile_graph
from repro.partition import make_group

#: Enumeration ceiling: subsets larger than this are not brute-forced
#: (the bound rarely exceeds 3 on circuits this small).
MAX_ENUM = 3


@st.composite
def feedback_profiles(draw):
    n_dffs = draw(st.integers(min_value=1, max_value=5))
    dffs_on_scc = draw(st.integers(min_value=1, max_value=n_dffs))
    n_gates = draw(st.integers(min_value=10, max_value=30))
    n_inv = draw(st.integers(min_value=0, max_value=4))
    base = 2 * n_gates + n_inv + 10 * n_dffs
    return CircuitProfile(
        name=f"bud{draw(st.integers(0, 10**6))}",
        n_inputs=draw(st.integers(min_value=3, max_value=8)),
        n_dffs=n_dffs,
        n_gates=n_gates,
        n_inverters=n_inv,
        paper_area=base + draw(st.integers(min_value=0, max_value=10)),
        dffs_on_scc=dffs_on_scc,
        n_outputs=draw(st.integers(min_value=1, max_value=3)),
    )


def feedback_circuit(profile, seed):
    """The generated circuit; draws the generator refuses are rejected.

    Some ``(profile, seed)`` pairs plan feedback rings that leave fewer
    plain gates than the circuit has stages, and ``generate_circuit``
    raises ``NetlistError`` for them by design.
    """
    try:
        return generate_circuit(profile, seed=seed)
    except NetlistError:
        assume(False)


def hypergraph(netlist, scc_nodes):
    """Netlist-level rebuild of the precheck's traversal hypergraph.

    Returns ``(comb, edges, boundary_of)``: the SCC's comb cell outputs,
    hyperedges as ``(source, [comb sinks in scc])`` per comb-sourced net,
    and each comb cell's set of boundary (PI- or DFF-driven) inputs.
    """
    fan = netlist.fanout_map()
    comb = [
        c.output
        for c in netlist.cells()
        if not c.is_dff and c.output in scc_nodes
    ]
    comb_set = set(comb)
    edges = []
    for out in comb:
        sinks = [
            r.output
            for r in fan.get(out, ())
            if not r.is_dff and r.output in comb_set
        ]
        if sinks:
            edges.append((out, sinks))
    boundary_of = {}
    for out in comb:
        cell = netlist.cell(out)
        boundary_of[out] = {
            s
            for s in cell.inputs
            if netlist.is_input(s)
            or (
                netlist.has_signal(s)
                and netlist.driver(s) is not None
                and netlist.driver(s).is_dff
            )
        }
    return comb, edges, boundary_of


def forced_groups(comb, edges, removed):
    """Components of the hypergraph after deleting ``removed`` edges."""
    parent = {n: n for n in comb}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for idx, (src, sinks) in enumerate(edges):
        if idx in removed:
            continue
        for s in sinks:
            ra, rb = find(src), find(s)
            if ra != rb:
                parent[rb] = ra
    groups = {}
    for n in comb:
        groups.setdefault(find(n), []).append(n)
    return list(groups.values())


@given(feedback_profiles(), st.integers(0, 99), st.integers(2, 6))
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_lower_bound_sound_against_bruteforce(profile, seed, lk):
    netlist = feedback_circuit(profile, seed)
    graph = build_circuit_graph(netlist, with_po_nodes=False)
    scc_index = SCCIndex(graph)
    cg = compile_graph(graph)
    for info in scc_index.sccs():
        bound = scc_cut_lower_bound(cg, info.nodes, lk, scc_id=info.scc_id)
        if bound.min_cuts == 0:
            continue
        comb, edges, boundary_of = hypergraph(netlist, set(info.nodes))
        assert comb, "a nonzero bound implies comb members"
        largest = (
            MAX_ENUM
            if bound.min_cuts == inf
            else min(int(bound.min_cuts) - 1, MAX_ENUM)
        )
        for r in range(0, min(largest, len(edges)) + 1):
            for removed in combinations(range(len(edges)), r):
                groups = forced_groups(comb, edges, set(removed))
                worst = max(
                    len(set().union(*(boundary_of[n] for n in g)))
                    for g in groups
                )
                assert worst > lk, (
                    f"scc{info.scc_id}: bound={bound.min_cuts} but "
                    f"removing {r} edge(s) {removed} leaves max b={worst} "
                    f"<= lk={lk}"
                )


@given(feedback_profiles(), st.integers(0, 99), st.integers(2, 6), st.integers(1, 2))
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_infeasible_verdicts_match_make_group(profile, seed, lk, beta):
    netlist = feedback_circuit(profile, seed)
    graph = build_circuit_graph(netlist, with_po_nodes=False)
    scc_index = SCCIndex(graph)
    cg = compile_graph(graph)
    bounds = budget_prechecks(cg, scc_index, lk)
    if all(b.feasible(beta) for b in bounds):
        return  # the precheck makes no claim — nothing to verify
    config = MercedConfig(seed=1996, lk=lk, beta=beta, min_visit=5)
    group = make_group(graph, scc_index, config, strict=False)
    oversized = [
        c for c in group.partition.clusters if c.input_count > lk
    ]
    assert group.infeasible_clusters or oversized, (
        "precheck declared infeasibility but make_group found a legal "
        f"partition at lk={lk}, beta={beta}"
    )
