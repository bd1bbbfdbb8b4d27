"""Formal PIC validation (Eqs. 5 and 6)."""

from repro.config import MercedConfig
from repro.graphs import NodeKind, SCCIndex
from repro.partition import (
    Cluster,
    Partition,
    check_pic,
    make_group,
    assign_cbit,
)


def full_partition(graph, lk):
    nodes = {
        n for n in graph.nodes() if graph.kind(n) is not NodeKind.INPUT
    }
    return Partition(
        graph,
        [Cluster.from_nodes(0, graph, nodes)],
        lk=lk,
        scc_index=SCCIndex(graph),
    )


def test_merced_output_is_valid_pic(s27_graph, s27_scc):
    res = make_group(s27_graph, s27_scc, MercedConfig(lk=3, seed=7))
    merged = assign_cbit(res.partition)
    assert check_pic(merged.partition, beta=50) == []


def test_input_bound_violation_reported(s27_graph):
    p = full_partition(s27_graph, lk=2)
    violations = check_pic(p, beta=50)
    assert any(v.kind == "input-bound" for v in violations)


def test_coverage_violation_reported(s27_graph):
    p = Partition(
        s27_graph,
        [Cluster.from_nodes(0, s27_graph, {"G8"})],
        lk=5,
        scc_index=SCCIndex(s27_graph),
    )
    violations = check_pic(p, beta=50)
    assert any(v.kind == "coverage" for v in violations)


def test_register_boundary_partition_has_no_cuts(ring_graph):
    """Splitting along the ring's DFFs cuts nothing (free boundaries)."""
    idx = SCCIndex(ring_graph)
    p = Partition(
        ring_graph,
        [
            Cluster.from_nodes(0, ring_graph, {"g1", "q1"}),
            Cluster.from_nodes(1, ring_graph, {"g2", "q2", "tail"}),
        ],
        lk=10,
        scc_index=idx,
    )
    assert p.cut_nets() == []
    assert check_pic(p, beta=1) == []


def test_scc_budget_violation_reported(ring_graph):
    # isolate "tail" so the SCC-internal net g2 is cut (its comb branch
    # crosses); then shrink the SCC's register count so χ=1 > β·f=0.
    idx = SCCIndex(ring_graph)
    p = Partition(
        ring_graph,
        [
            Cluster.from_nodes(0, ring_graph, {"g1", "q1", "g2", "q2"}),
            Cluster.from_nodes(1, ring_graph, {"tail"}),
        ],
        lk=10,
        scc_index=idx,
    )
    assert set(p.cut_nets()) == {"g2"}
    # f=2, β=1 → budget 2 ≥ χ=1: valid
    assert not any(v.kind == "scc-budget" for v in check_pic(p, beta=1))
    idx.sccs()[0].__dict__["register_count"] = 0
    violations = check_pic(p, beta=1)
    assert any(v.kind == "scc-budget" for v in violations)
