"""Cluster input counts ι and the Partition container."""

import pytest

from repro.errors import PartitionError
from repro.graphs import SCCIndex, build_circuit_graph
from repro.partition import Cluster, Partition, cluster_input_count, cluster_input_nets


class TestInputCount:
    def test_single_gate(self, s27_graph):
        # G8 = AND(G14, G6): one comb input net, one register net
        assert cluster_input_count(s27_graph, {"G8"}) == 2

    def test_register_net_always_counts(self, s27_graph):
        # include the DFF G6 with G8: its output is still a CUT input
        assert cluster_input_count(s27_graph, {"G8", "G6"}) == 2

    def test_internal_comb_net_not_counted(self, s27_graph):
        # G14 = NOT(G0) feeds G8; grouping them internalizes net G14
        iota_apart = cluster_input_count(s27_graph, {"G8"})
        iota_joined = cluster_input_count(s27_graph, {"G8", "G14"})
        # G8 loses input G14 but gains G14's input G0 (a PI net)
        assert iota_joined == iota_apart
        assert "G14" not in cluster_input_nets(s27_graph, {"G8", "G14"})
        assert "G0" in cluster_input_nets(s27_graph, {"G8", "G14"})

    def test_pure_register_cluster_has_zero_inputs(self, s27_graph):
        assert cluster_input_count(s27_graph, {"G5", "G6"}) == 0

    def test_shared_input_counted_once(self, s27_graph):
        # G15 = OR(G12, G8), G16 = OR(G3, G8): G8 shared
        nets = cluster_input_nets(s27_graph, {"G15", "G16"})
        assert nets == {"G12", "G8", "G3"}

    def test_input_count_follows_direct_reassignment(self, s27_graph):
        """ι is read off ``input_nets``: relocating nodes by assigning the
        membership fields directly (as the refinement engine does) needs
        no refresh step."""
        cl = Cluster.from_nodes(0, s27_graph, {"G8"})
        assert cl.input_count == 2
        cl.nodes = frozenset({"G15", "G16"})
        cl.input_nets = frozenset(
            cluster_input_nets(s27_graph, cl.nodes)
        )
        assert cl.input_count == len(cl.input_nets) == 3


class TestPartition:
    def make_partition(self, graph, groups, lk=3):
        clusters = [
            Cluster.from_nodes(i, graph, g) for i, g in enumerate(groups)
        ]
        return Partition(graph, clusters, lk=lk, scc_index=SCCIndex(graph))

    def all_nodes(self, graph):
        from repro.graphs import NodeKind

        return [
            n for n in graph.nodes() if graph.kind(n) is not NodeKind.INPUT
        ]

    def test_overlapping_clusters_rejected(self, s27_graph):
        with pytest.raises(PartitionError, match="assigned to clusters"):
            self.make_partition(s27_graph, [{"G8"}, {"G8", "G9"}])

    def test_validate_requires_full_coverage(self, s27_graph):
        p = self.make_partition(s27_graph, [{"G8"}])
        with pytest.raises(PartitionError, match="cover"):
            p.validate()

    def test_single_cluster_covers_everything(self, s27_graph):
        p = self.make_partition(
            s27_graph, [set(self.all_nodes(s27_graph))], lk=10
        )
        p.validate()
        assert p.cut_nets() == []
        assert p.m == 1

    def test_cut_nets_cross_comb_boundaries(self, s27_graph):
        nodes = set(self.all_nodes(s27_graph))
        # isolate G8 (AND gate feeding G15/G16)
        p = self.make_partition(s27_graph, [{"G8"}, nodes - {"G8"}], lk=20)
        cuts = p.cut_nets()
        assert "G8" in cuts  # G8's output crosses into the other cluster
        assert "G14" in cuts  # G14 feeds G8 from the other side

    def test_register_boundary_is_not_a_cut(self, s27_graph):
        nodes = set(self.all_nodes(s27_graph))
        # isolate the DFF G6: nets G11 -> G6 (into register) and
        # G6 -> G8 (register source) are free boundaries
        p = self.make_partition(s27_graph, [{"G6"}, nodes - {"G6"}], lk=20)
        assert p.cut_nets() == []

    def test_cut_nets_on_scc(self, s27_graph):
        nodes = set(self.all_nodes(s27_graph))
        p = self.make_partition(s27_graph, [{"G9"}, nodes - {"G9"}], lk=20)
        cuts = set(p.cut_nets())
        on_scc = set(p.cut_nets_on_scc())
        assert on_scc <= cuts
        assert "G9" in on_scc  # G9 sits on the feedback loop

    def test_feasibility(self, s27_graph):
        p = self.make_partition(
            s27_graph, [set(self.all_nodes(s27_graph))], lk=2
        )
        assert not p.is_feasible()
        p2 = self.make_partition(
            s27_graph, [set(self.all_nodes(s27_graph))], lk=10
        )
        assert p2.is_feasible()

    def test_cluster_of(self, s27_graph):
        nodes = set(self.all_nodes(s27_graph))
        p = self.make_partition(s27_graph, [{"G8"}, nodes - {"G8"}], lk=20)
        assert p.cluster_of("G8").cluster_id == 0
        assert p.cluster_of("G9").cluster_id == 1
        assert p.cluster_of("nonexistent") is None

    def test_stale_input_nets_detected(self, s27_graph):
        nodes = set(self.all_nodes(s27_graph))
        bad = Cluster(0, frozenset(nodes), frozenset({"G0"}))
        p = Partition(s27_graph, [bad], lk=30)
        with pytest.raises(PartitionError, match="stale"):
            p.validate()

