"""Test-pipe scheduling (Figure 1(b)) and the scan chain."""

import pytest

from repro.cbit import assemble_cbits
from repro.config import MercedConfig
from repro.graphs import NodeKind, SCCIndex, build_circuit_graph
from repro.partition import assign_cbit, make_group
from repro.ppet import build_scan_chain, observer_map, schedule_pipes


@pytest.fixture
def s27_setup(s27_graph, s27_scc):
    res = make_group(s27_graph, s27_scc, MercedConfig(lk=3, seed=7))
    merged = assign_cbit(res.partition)
    plan = assemble_cbits(merged.partition)
    return merged.partition, plan


class TestObserverMap:
    def test_self_not_observer(self, s27_setup):
        partition, _ = s27_setup
        obs = observer_map(partition)
        for cid, observers in obs.items():
            assert cid not in observers

    def test_cut_net_implies_observation(self, s27_setup):
        partition, _ = s27_setup
        obs = observer_map(partition)
        graph = partition.graph
        for net_name in partition.cut_nets():
            net = graph.net(net_name)
            src_cluster = partition.cluster_of(net.source).cluster_id
            comb_sinks = [
                s
                for s in net.sinks
                if partition.cluster_of(s) is not None
                and graph.kind(s) is not NodeKind.REGISTER
            ]
            for sink in comb_sinks:
                dst = partition.cluster_of(sink).cluster_id
                if dst != src_cluster:
                    assert dst in obs[src_cluster]


class TestSchedule:
    def test_every_cbit_cluster_tested_once(self, s27_setup):
        partition, plan = s27_setup
        sched = schedule_pipes(partition, plan)
        tested = [c for p in sched.pipes for c in p.tested_clusters]
        assert sorted(tested) == sorted(a.cluster_id for a in plan.assignments)

    def test_roles_consistent_within_pipe(self, s27_setup):
        partition, plan = s27_setup
        sched = schedule_pipes(partition, plan)
        obs = observer_map(partition)
        for pipe in sched.pipes:
            assert not (pipe.tpg_clusters & pipe.psa_clusters)
            for cid in pipe.tested_clusters:
                assert cid in pipe.tpg_clusters
                for o in obs[cid]:
                    if o != cid and o in {
                        a.cluster_id for a in plan.assignments
                    }:
                        assert o in pipe.psa_clusters

    def test_pipe_cycles_dominated_by_widest(self, s27_setup):
        partition, plan = s27_setup
        widths = {a.cluster_id: a.width for a in plan.assignments}
        sched = schedule_pipes(partition, plan)
        for pipe in sched.pipes:
            assert pipe.cycles == 1 << max(
                widths[c] for c in pipe.tested_clusters
            )

    def test_total_cycles(self, s27_setup):
        partition, plan = s27_setup
        sched = schedule_pipes(partition, plan, scan_cycles=100)
        assert sched.total_cycles == sched.test_cycles + 100

    def test_testing_time_far_below_exhaustive(self, s27_setup):
        """PPET's point: 2^lk per pipe, not 2^(total inputs)."""
        partition, plan = s27_setup
        sched = schedule_pipes(partition, plan)
        assert sched.test_cycles < (1 << 7)  # s27 has 7 PIs+DFFs total


class TestScanChain:
    def test_length_is_total_width(self, s27_setup):
        _, plan = s27_setup
        chain = build_scan_chain(plan)
        assert chain.length == sum(a.width for a in plan.assignments)
        assert chain.init_cycles == chain.readout_cycles == chain.length
