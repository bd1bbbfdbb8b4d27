"""Make_Group (Table 4): input-bounded clustering end to end."""

import pytest

from repro.circuits import load_circuit
from repro.config import MercedConfig
from repro.errors import InfeasiblePartitionError
from repro.flow import saturate_network
from repro.graphs import SCCIndex, build_circuit_graph
from repro.partition import make_group


class TestOnS27:
    def test_all_clusters_within_lk(self, s27_graph, s27_scc):
        res = make_group(s27_graph, s27_scc, MercedConfig(lk=3, seed=7))
        assert res.partition.max_input_count() <= 3
        res.partition.validate()

    def test_feasible_flag(self, s27_graph, s27_scc):
        res = make_group(s27_graph, s27_scc, MercedConfig(lk=3, seed=7))
        assert res.feasible

    def test_sorted_by_input_count(self, s27_graph, s27_scc):
        res = make_group(s27_graph, s27_scc, MercedConfig(lk=3, seed=7))
        iotas = [c.input_count for c in res.partition.clusters]
        assert iotas == sorted(iotas, reverse=True)

    def test_large_lk_produces_few_clusters(self, s27_graph, s27_scc):
        res = make_group(s27_graph, s27_scc, MercedConfig(lk=30, seed=7))
        # everything fits without cutting any comb net
        assert res.partition.cut_nets() == []

    def test_determinism(self, s27, fast_config):
        g1 = build_circuit_graph(s27, with_po_nodes=False)
        g2 = build_circuit_graph(s27, with_po_nodes=False)
        cfg = fast_config.with_lk(3)
        r1 = make_group(g1, SCCIndex(g1), cfg)
        r2 = make_group(g2, SCCIndex(g2), cfg)
        assert [sorted(c.nodes) for c in r1.partition.clusters] == [
            sorted(c.nodes) for c in r2.partition.clusters
        ]

    def test_infeasible_lk_raises(self, s27_graph, s27_scc):
        # NAND/NOR cells have 2 inputs; l_k=1 is impossible
        with pytest.raises(InfeasiblePartitionError):
            make_group(s27_graph, s27_scc, MercedConfig(lk=1, seed=7))

    def test_smaller_lk_cuts_more(self, s27):
        cuts = {}
        for lk in (3, 6):
            g = build_circuit_graph(s27, with_po_nodes=False)
            res = make_group(g, SCCIndex(g), MercedConfig(lk=lk, seed=7))
            cuts[lk] = len(res.partition.cut_nets())
        assert cuts[3] >= cuts[6]


class TestSCCBudget:
    def test_beta_limits_scc_cuts(self, s510):
        """Eq. 6: with a tight β, cuts inside SCCs stay within β·f."""
        g = build_circuit_graph(s510, with_po_nodes=False)
        scc = SCCIndex(g)
        cfg = MercedConfig(lk=16, seed=3, beta=1, min_visit=5)
        res = make_group(g, scc, cfg, strict=False)
        per_scc = {}
        for net in res.partition.cut_nets():
            info = scc.scc_of_net(net)
            if info is not None:
                per_scc[info.scc_id] = per_scc.get(info.scc_id, 0) + 1
        by_id = {s.scc_id: s for s in scc.sccs()}
        for scc_id, chi in per_scc.items():
            assert chi <= 1 * by_id[scc_id].register_count

    def test_tight_beta_can_force_oversized_clusters(self, s510):
        """The β trade-off: welded SCCs may exceed l_k (non-strict mode)."""
        g = build_circuit_graph(s510, with_po_nodes=False)
        cfg = MercedConfig(lk=16, seed=3, beta=1, min_visit=5)
        res = make_group(g, SCCIndex(g), cfg, strict=False)
        assert not res.feasible
        assert all(
            c.input_count > 16 for c in res.infeasible_clusters
        )

    def test_relaxed_beta_allows_more_cuts(self, s510):
        results = {}
        for beta in (1, 50):
            g = build_circuit_graph(s510, with_po_nodes=False)
            cfg = MercedConfig(lk=16, seed=3, beta=beta, min_visit=5)
            res = make_group(g, SCCIndex(g), cfg, strict=False)
            results[beta] = len(res.partition.cut_nets_on_scc())
        assert results[50] >= results[1]


def _outcome(result):
    clusters = [
        (c.cluster_id, c.nodes, c.input_nets)
        for c in result.partition.clusters
    ]
    state = result.cut_state
    return clusters, state.cut, state.forced, result.n_splits


class TestPresaturated:
    @pytest.mark.parametrize(
        "name,lk,seed", [("s27", 3, 7), ("s510", 16, 1996)]
    )
    def test_split_call_equals_fresh_run(self, name, lk, seed):
        """``saturate_network`` then ``make_group(presaturated=True)``
        finds the saturation in the graph's compiled view and partitions
        exactly like one ``make_group`` call on a fresh graph."""
        config = MercedConfig(lk=lk, seed=seed)
        netlist = load_circuit(name)
        fresh = build_circuit_graph(netlist, with_po_nodes=False)
        expected = make_group(fresh, SCCIndex(fresh), config)
        graph = build_circuit_graph(netlist, with_po_nodes=False)
        scc_index = SCCIndex(graph)
        saturate_network(graph, config)
        split = make_group(graph, scc_index, config, presaturated=True)
        assert _outcome(split) == _outcome(expected)
        assert expected.n_splits > 0

    def test_reuses_existing_distances(self, s27_graph, s27_scc):
        saturate_network(s27_graph, MercedConfig(min_visit=5, seed=1))
        res = make_group(
            s27_graph, s27_scc, MercedConfig(lk=3, seed=1), presaturated=True
        )
        assert res.saturation.n_sources == 0
        assert res.partition.max_input_count() <= 3
