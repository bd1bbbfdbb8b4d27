"""CompiledGraph structural invariants + compiled-vs-reference SCC equality.

The compiled CSR layer must be a *lossless* view of the circuit graph —
same node/net orders, same adjacency rows, same successor dedup order —
because every downstream kernel's bit-identity argument starts from
"the compiled arrays iterate in exactly the order the reference code
iterates".  These tests pin that down directly, then hold the compiled
Tarjan to the string-keyed reference on random feedback circuits and
bundled benches.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.circuits import load_circuit
from repro.circuits.generator import generate_circuit
from repro.circuits.profiles import CircuitProfile
from repro.graphs import (
    NodeKind,
    SCCIndex,
    build_circuit_graph,
    compile_graph,
    strongly_connected_components,
    strongly_connected_components_reference,
)
from repro.graphs.csr import _KIND_CODE, CompiledGraph


@st.composite
def feedback_profiles(draw):
    n_dffs = draw(st.integers(min_value=1, max_value=6))
    dffs_on_scc = draw(st.integers(min_value=0, max_value=n_dffs))
    n_gates = draw(st.integers(min_value=15, max_value=40))
    n_inv = draw(st.integers(min_value=0, max_value=6))
    base = 2 * n_gates + n_inv + 10 * n_dffs
    return CircuitProfile(
        name=f"csr{draw(st.integers(0, 10**6))}",
        n_inputs=draw(st.integers(min_value=2, max_value=6)),
        n_dffs=n_dffs,
        n_gates=n_gates,
        n_inverters=n_inv,
        paper_area=base + draw(st.integers(min_value=0, max_value=10)),
        dffs_on_scc=dffs_on_scc,
        n_outputs=draw(st.integers(min_value=1, max_value=3)),
    )


def graph_for(profile, seed=13):
    return build_circuit_graph(
        generate_circuit(profile, seed=seed), with_po_nodes=False
    )


# ---------------------------------------------------------------------------
# structural invariants
# ---------------------------------------------------------------------------
@given(feedback_profiles())
@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_compiled_view_is_lossless(profile):
    graph = graph_for(profile)
    cg = compile_graph(graph)

    assert cg.node_names == list(graph.nodes())
    assert cg.net_names == [n.name for n in graph.nets()]
    assert cg.n_nodes == graph.n_nodes and cg.n_nets == graph.n_nets
    for name, i in cg.node_id.items():
        assert cg.node_names[i] == name
        assert cg.kind[i] == _KIND_CODE[graph.kind(name)]
    # name_rank sort reproduces sorted(names)
    by_rank = sorted(range(cg.n_nodes), key=cg.name_rank.__getitem__)
    assert [cg.node_names[i] for i in by_rank] == sorted(cg.node_names)
    for i, name in enumerate(cg.node_names):
        out_row = [
            cg.net_names[cg.out_net_ids[p]]
            for p in range(cg.out_start[i], cg.out_start[i + 1])
        ]
        assert out_row == [n.name for n in graph.out_nets(name)]
        in_row = [
            cg.net_names[cg.in_net_ids[p]]
            for p in range(cg.in_start[i], cg.in_start[i + 1])
        ]
        assert in_row == [n.name for n in graph.in_nets(name)]
        succ = [
            cg.node_names[cg.succ_ids[p]]
            for p in range(cg.succ_start[i], cg.succ_start[i + 1])
        ]
        assert succ == graph.successors(name)
    for ni, net in enumerate(graph.nets()):
        assert cg.net_src[ni] == cg.node_id[net.source]
        sinks = [
            cg.node_names[cg.sink_ids[q]]
            for q in range(cg.sink_start[ni], cg.sink_start[ni + 1])
        ]
        assert sinks == list(net.sinks)
        assert cg.fanout(ni) == net.fanout
        is_boundary = graph.kind(net.source) is not NodeKind.COMB
        assert bool(cg.boundary_net[ni]) == is_boundary
        assert bool(cg.comb_src[ni]) == (not is_boundary)
        assert cg.flow[ni] == 0.0 and cg.dist[ni] == 1.0


def test_compile_graph_caches_and_invalidates():
    graph = build_circuit_graph(load_circuit("s27"), with_po_nodes=False)
    cg = compile_graph(graph)
    assert compile_graph(graph) is cg  # cached
    graph.add_node("late_node", NodeKind.COMB)
    cg2 = compile_graph(graph)
    assert cg2 is not cg  # topology change invalidates
    assert "late_node" in cg2.node_id


# ---------------------------------------------------------------------------
# compiled Tarjan vs reference
# ---------------------------------------------------------------------------
@given(feedback_profiles(), st.integers(min_value=0, max_value=99))
@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_scc_equivalence_random(profile, seed):
    graph = graph_for(profile, seed=seed)
    assert strongly_connected_components(
        graph
    ) == strongly_connected_components_reference(graph)


@pytest.mark.parametrize("name", ["s27", "s420.1", "s510", "s641", "s1423"])
def test_scc_equivalence_bundled(name):
    graph = build_circuit_graph(load_circuit(name), with_po_nodes=False)
    compiled = strongly_connected_components(graph)
    reference = strongly_connected_components_reference(graph)
    assert compiled == reference  # same comps, same order, same node order


# ---------------------------------------------------------------------------
# corpus-backed cases: well beyond the hypothesis profile sizes
# ---------------------------------------------------------------------------
from repro.corpus import TREND_SPECS, generate_corpus_circuit, load_corpus_circuit

CORPUS_TIER1 = ["corpus-ff400", "corpus-ring600"]
CORPUS_SLOW = ["corpus-chord800", "corpus-coupled1k", "corpus-hub1k", "corpus-dense2k"]


@pytest.mark.parametrize("name", CORPUS_TIER1)
def test_scc_equivalence_corpus(name):
    graph = build_circuit_graph(load_corpus_circuit(name), with_po_nodes=False)
    assert strongly_connected_components(
        graph
    ) == strongly_connected_components_reference(graph)


@pytest.mark.slow
@pytest.mark.parametrize("name", CORPUS_SLOW)
def test_scc_equivalence_corpus_slow(name):
    graph = build_circuit_graph(load_corpus_circuit(name), with_po_nodes=False)
    assert strongly_connected_components(
        graph
    ) == strongly_connected_components_reference(graph)


@pytest.mark.slow
def test_scc_equivalence_corpus_50k():
    """Compiled vs reference Tarjan at claimed scale (50k gates)."""
    netlist = generate_corpus_circuit(TREND_SPECS["corpus-50k"])
    graph = build_circuit_graph(netlist, with_po_nodes=False)
    assert strongly_connected_components(
        graph
    ) == strongly_connected_components_reference(graph)


@pytest.mark.slow
def test_compiled_view_is_lossless_corpus():
    graph = build_circuit_graph(
        load_corpus_circuit("corpus-dense2k"), with_po_nodes=False
    )
    cg = compile_graph(graph)
    assert cg.node_names == list(graph.nodes())
    assert cg.net_names == [n.name for n in graph.nets()]
    for i, name in enumerate(cg.node_names):
        succ = [
            cg.node_names[cg.succ_ids[p]]
            for p in range(cg.succ_start[i], cg.succ_start[i + 1])
        ]
        assert succ == graph.successors(name)


@pytest.mark.parametrize("name", ["s27", "s641", "s1423"])
def test_scc_index_matches_reference_construction(name):
    """SCCIndex (compiled build) == a from-scratch string-keyed build."""
    graph = build_circuit_graph(load_circuit(name), with_po_nodes=False)
    index = SCCIndex(graph)

    expected = []
    for comp in strongly_connected_components_reference(graph):
        members = set(comp)
        if len(comp) == 1:
            node = comp[0]
            if not any(
                node in net.sinks for net in graph.out_nets(node)
            ):
                continue
        internal = []
        n_regs = 0
        for node in comp:
            if graph.kind(node) is NodeKind.REGISTER:
                n_regs += 1
            for net in graph.out_nets(node):
                if any(s in members for s in net.sinks):
                    internal.append(net.name)
        expected.append((tuple(comp), n_regs, tuple(internal)))

    got = [
        (info.nodes, info.register_count, info.internal_nets)
        for info in index.sccs()
    ]
    assert got == expected
