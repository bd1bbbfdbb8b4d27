"""CBIT plan assembly from a partition."""

import pytest

from repro.cbit import assemble_cbits
from repro.config import MercedConfig
from repro.graphs import NodeKind, SCCIndex
from repro.partition import Cluster, Partition, assign_cbit, make_group


@pytest.fixture
def s27_plan(s27_graph, s27_scc):
    res = make_group(s27_graph, s27_scc, MercedConfig(lk=3, seed=7))
    merged = assign_cbit(res.partition)
    return merged.partition, assemble_cbits(merged.partition)


class TestAssemble:
    def test_every_nonempty_cluster_gets_a_cbit(self, s27_plan):
        partition, plan = s27_plan
        with_inputs = [c for c in partition.clusters if c.input_count > 0]
        assert len(plan.assignments) == len(with_inputs)

    def test_widths_match_input_counts(self, s27_plan):
        partition, plan = s27_plan
        by_id = {c.cluster_id: c for c in partition.clusters}
        for a in plan.assignments:
            assert a.width == by_id[a.cluster_id].input_count
            assert a.testing_time == 1 << a.width

    def test_input_nets_sorted(self, s27_plan):
        _, plan = s27_plan
        for a in plan.assignments:
            assert list(a.input_nets) == sorted(a.input_nets)

    def test_total_cost_is_sum(self, s27_plan):
        _, plan = s27_plan
        assert plan.total_cost_dff == pytest.approx(
            sum(a.cost_dff for a in plan.assignments)
        )

    def test_widest(self, s27_plan):
        partition, plan = s27_plan
        assert plan.widest() == partition.max_input_count()

    def test_pure_register_cluster_skipped(self, s27_graph, s27_scc):
        nodes = {
            n
            for n in s27_graph.nodes()
            if s27_graph.kind(n) is not NodeKind.INPUT
        }
        clusters = [
            Cluster.from_nodes(0, s27_graph, nodes - {"G5"}),
            Cluster.from_nodes(1, s27_graph, {"G5"}),
        ]
        p = Partition(s27_graph, clusters, lk=30, scc_index=s27_scc)
        plan = assemble_cbits(p)
        assert [a.cluster_id for a in plan.assignments] == [0]
