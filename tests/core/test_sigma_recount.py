"""Eq. 4/5/6 recounted on the partition each compile returns.

The report's Σ, and the sweep/service payload built from it, must be
the Eq. 4 sum ``Σ p_k n_k`` over the clusters the report hands back,
whether that partition comes from the greedy ``Assign_CBIT`` or from a
refinement tier; and the partition must meet Eq. 5 and Eq. 6 against
an SCC index built afresh from the netlist.
"""

import pytest

from repro import Merced, MercedConfig
from repro.cbit.types import cbit_cost_for_inputs
from repro.circuits import load_circuit
from repro.exec.task import merced_payload
from repro.graphs import SCCIndex, build_circuit_graph
from repro.partition import check_pic

CASES = [("s27", 3), ("s510", 16), ("s420.1", 16)]


@pytest.mark.parametrize("optimize", [None, "fast", "anneal"])
@pytest.mark.parametrize("name,lk", CASES, ids=[c for c, _ in CASES])
def test_payload_sigma_recounts_on_returned_partition(name, lk, optimize):
    netlist = load_circuit(name)
    config = MercedConfig(
        lk=lk, seed=1996, optimize=optimize, optimize_budget=1.0
    )
    report = Merced(config).run(netlist)
    sigma = sum(
        cbit_cost_for_inputs(c.input_count)[0]
        for c in report.partition.clusters
    )
    assert merced_payload(report)["cost_dff"] == sigma
    scc_index = SCCIndex(build_circuit_graph(netlist, with_po_nodes=False))
    assert check_pic(report.partition, config.beta, scc_index) == []
