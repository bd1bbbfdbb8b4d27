"""Regression bench: compiled CSR partition/retiming kernels vs reference.

Not a paper table — this bench guards the speedup of the compiled graph
layer (``repro.graphs.csr``) that the partition + retiming pipeline runs
on.  The workload is the post-saturation pipeline on the largest
default-bundled ISCAS circuit (s5378): ``Make_Group`` (epoch-stamped DFS
+ lazy boundary heaps) and ``Assign_CBIT`` (incremental merge-gain) on
the full graph, then the exact cut-retiming solver (SPFA cycle
cancelling) on a stride-16 subsample of the cut set — once through the
compiled kernels and once through the string-keyed reference path,
whose retiming twin finds every cycle with dense Bellman–Ford.

The subsample exists **only** because this bench must run the dense
reference twin for its bit-identity assertion, and each of its
cycle-search rounds on s5378 is a dense pass over the whole
2814-variable constraint system.  The *benchmark record* for the full
cut set — no subsampling — is ``BENCH_partition.json``, produced by
``scripts/bench_trend.py``, which runs the production solver only.
Saturation is run once up front and its flow state restored before each
run, so the comparison times exactly the compiled kernels — and the
bench asserts the two paths are **bit-identical** (same clusters, cuts,
merge choices, lags, covered and dropped cuts; the retiming round
count may differ) AND that the compiled path is at least 3x faster.
The timing table is printed only.
"""

import time

from conftest import bench_config
from repro.circuits import load_circuit
from repro.core import format_table
from repro.flow.saturate import saturate_network
from repro.graphs import SCCIndex, build_circuit_graph, compile_graph
from repro.partition import assign_cbit, make_group
from repro.retiming.solve import (
    max_coverage_retiming,
    max_coverage_retiming_reference,
)

MIN_SPEEDUP = 3.0
CIRCUIT = "s5378"  # largest circuit bundled in the default bench set
LK = 16
#: Retiming runs on cuts[::16] in THIS BENCH ONLY, because the dense
#: reference twin needed for the bit-identity assertion is slow on the
#: full cut set (see module docstring).  Full-cut-set
#: numbers are tracked by scripts/bench_trend.py -> BENCH_partition.json.
REFERENCE_COMPARE_STRIDE = 16


def snapshot_flow(graph):
    cg = compile_graph(graph)
    return list(cg.flow), list(cg.dist)


def restore_flow(graph, snap):
    cg = compile_graph(graph)
    cg.flow[:], cg.dist[:] = snap


def run_pipeline(graph, scc_index, config, snap, use_compiled):
    """Partition + merge + retiming on the saturated graph, either path."""
    restore_flow(graph, snap)  # undo the previous run's distance pinning
    group = make_group(
        graph,
        scc_index,
        config,
        presaturated=True,
        strict=False,
        use_compiled=use_compiled,
    )
    merged = assign_cbit(group.partition, use_compiled=use_compiled)
    cuts = merged.partition.cut_nets()[::REFERENCE_COMPARE_STRIDE]
    solve = (
        max_coverage_retiming
        if use_compiled
        else max_coverage_retiming_reference
    )
    solution = solve(graph, cuts)
    return {
        "n_splits": group.n_splits,
        "cut": sorted(group.cut_state.cut),
        "forced": sorted(group.cut_state.forced),
        "clusters": [
            (tuple(sorted(c.nodes)), tuple(sorted(c.input_nets)))
            for c in group.partition.clusters
        ],
        "merged": [
            (tuple(sorted(c.nodes)), tuple(sorted(c.input_nets)))
            for c in merged.partition.clusters
        ],
        "cost_dff": merged.cost_dff,
        "n_merges": merged.n_merges,
        "cut_nets": cuts,
        "rho": solution.retiming.rho,
        "covered": sorted(solution.covered_cuts),
        "dropped": sorted(solution.dropped_cuts),
        "unconstrained": sorted(solution.unconstrained_cuts),
    }


def test_partition_kernel_speedup(benchmark):
    config = bench_config(CIRCUIT, LK)
    graph = build_circuit_graph(load_circuit(CIRCUIT), with_po_nodes=False)
    scc_index = SCCIndex(graph)
    saturate_network(graph, config)  # once; both paths reuse its distances
    snap = snapshot_flow(graph)

    compiled_payload = benchmark.pedantic(
        run_pipeline,
        args=(graph, scc_index, config, snap, True),
        rounds=1,
        iterations=1,
    )
    t0 = time.perf_counter()
    run_pipeline(graph, scc_index, config, snap, True)
    compiled_seconds = time.perf_counter() - t0

    t0 = time.perf_counter()
    reference_payload = run_pipeline(graph, scc_index, config, snap, False)
    reference_seconds = time.perf_counter() - t0

    # bit-identical output is non-negotiable: same cuts, clusters, merges,
    # retiming lags and covered/dropped cuts
    assert compiled_payload == reference_payload

    speedup = reference_seconds / compiled_seconds
    assert speedup >= MIN_SPEEDUP, (
        f"compiled partition kernels only {speedup:.1f}x faster than the "
        f"reference path on {CIRCUIT} (required: {MIN_SPEEDUP:.0f}x)"
    )

    table = format_table(
        ["path", "seconds", "speedup"],
        [
            ["reference (string-keyed)", f"{reference_seconds:.3f}", "1.0x"],
            ["compiled (CSR kernels)", f"{compiled_seconds:.3f}", f"{speedup:.1f}x"],
        ],
    )
    print()
    print(
        f"{CIRCUIT} partition+retiming (post-saturation, l_k={LK}, "
        f"{len(compiled_payload['cut'])} cuts, "
        f"{compiled_payload['n_splits']} splits, retiming on "
        f"{len(compiled_payload['cut_nets'])} cuts at reference-compare "
        f"stride {REFERENCE_COMPARE_STRIDE}):\n" + table
    )
