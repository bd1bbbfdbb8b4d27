"""Figures 2, 5, 6, 7: the paper's s27 worked example.

* Figure 2 — the multi-pin graph of s27;
* Figure 5 — net congestion after ``Saturate_Network``;
* Figure 6 — clusters after ``Make_Group`` (l_k = 3);
* Figure 7 — the four merged partitions after ``Assign_CBIT``.
"""

import pytest

from conftest import emit
from repro.circuits import s27_netlist
from repro.config import MercedConfig
from repro.core import format_table
from repro.flow import saturate_network
from repro.graphs import SCCIndex, build_circuit_graph, compile_graph
from repro.partition import assign_cbit, make_group

CFG = MercedConfig(lk=3, seed=7)


def run_walkthrough():
    netlist = s27_netlist()
    graph = build_circuit_graph(netlist, with_po_nodes=False)
    scc = SCCIndex(graph)
    group = make_group(graph, scc, CFG)
    merged = assign_cbit(group.partition)
    return netlist, graph, scc, group, merged


def test_s27_walkthrough(benchmark, output_dir):
    netlist, graph, scc, group, merged = benchmark.pedantic(
        run_walkthrough, rounds=3, iterations=1
    )
    sections = []

    sections.append(
        "Figure 2 — s27 multi-pin graph\n"
        + format_table(
            ["net", "source", "sinks"],
            [
                (n.name, n.source, ",".join(n.sinks))
                for n in sorted(graph.nets(), key=lambda n: n.name)
            ],
        )
    )

    cg = compile_graph(graph)
    flows = sorted(
        zip(cg.net_names, cg.flow, cg.dist), key=lambda row: -row[1]
    )
    sections.append(
        "Figure 5 — congestion after Saturate_Network "
        f"({group.saturation.n_sources} sources)\n"
        + format_table(
            ["net", "flow", "d(e)", "on SCC"],
            [
                (name, round(flow, 3), round(dist, 3),
                 "yes" if scc.net_on_scc(name) else "")
                for name, flow, dist in flows
            ],
        )
    )

    sections.append(
        "Figure 6 — clusters after Make_Group (l_k = 3)\n"
        + format_table(
            ["cluster", "ι", "members"],
            [
                (c.cluster_id, c.input_count, ",".join(sorted(c.nodes)))
                for c in group.partition.clusters
            ],
        )
    )

    sections.append(
        "Figure 7 — partitions after Assign_CBIT (l_k = 3)\n"
        + format_table(
            ["partition", "ι", "input nets", "members"],
            [
                (
                    c.cluster_id,
                    c.input_count,
                    ",".join(sorted(c.input_nets)),
                    ",".join(sorted(c.nodes)),
                )
                for c in merged.partition.clusters
            ],
        )
        + f"\n\npartitions: {merged.n_partitions} (paper: 4), "
        f"cut nets: {len(merged.partition.cut_nets())}, "
        f"Σ cost: {merged.cost_dff:.2f} DFF"
    )

    emit(output_dir, "s27_walkthrough.txt", "\n\n".join(sections))

    # paper shape: SCC nets dominate the congestion ranking (Figure 5)
    top = flows[: max(3, len(flows) // 4)]
    assert sum(scc.net_on_scc(name) for name, _, _ in top) >= len(top) // 2
    # Figure 7: four partitions on the paper's own run
    assert merged.n_partitions == 4
    assert merged.partition.max_input_count() <= 3
