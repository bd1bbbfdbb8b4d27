"""Comparison baselines: SA partitioner, partial scan, conventional PET."""

import pytest

from repro import Merced, MercedConfig
from repro.baselines import (
    SCAN_MUX_UNITS,
    anneal_partition,
    compare_pet_ppet,
    greedy_mfvs,
    partial_scan_baseline,
    register_dependency_graph,
)
from repro.circuits import load_circuit
from repro.errors import PartitionError
from repro.graphs import SCCIndex, build_circuit_graph, strongly_connected_components


class TestAnnealing:
    def test_s27_reaches_feasibility(self, s27_graph, s27_scc):
        res = anneal_partition(
            s27_graph,
            m=4,
            config=MercedConfig(lk=3, seed=1),
            n_steps=2000,
            scc_index=s27_scc,
        )
        res.validate()
        assert res.is_feasible()

    def test_determinism(self, s27_graph):
        a = anneal_partition(
            s27_graph, m=3, config=MercedConfig(lk=4, seed=9), n_steps=800
        )
        b = anneal_partition(
            s27_graph, m=3, config=MercedConfig(lk=4, seed=9), n_steps=800
        )
        assert [sorted(c.nodes) for c in a.clusters] == [
            sorted(c.nodes) for c in b.clusters
        ]

    def test_invalid_m(self, s27_graph):
        with pytest.raises(PartitionError):
            anneal_partition(s27_graph, m=0)

class TestPartialScan:
    def test_dependency_graph_registers_only(self, s27_graph):
        dep = register_dependency_graph(s27_graph)
        assert set(dep.nodes()) == {"G5", "G6", "G7"}

    def test_s27_dependency_edges(self, s27_graph):
        dep = register_dependency_graph(s27_graph)
        # G6 -> G8 -> ... -> G10 -> G5: so G6 reaches G5
        assert "G5" in dep.successors("G6")

    def test_mfvs_breaks_all_cycles(self, s27_graph):
        dep = register_dependency_graph(s27_graph)
        fvs = greedy_mfvs(dep)
        # removing the FVS leaves the dependency graph acyclic
        from repro.graphs import CircuitGraph, NodeKind

        view = CircuitGraph("check")
        remaining = [n for n in dep.nodes() if n not in fvs]
        for n in remaining:
            view.add_node(n, NodeKind.REGISTER)
        for n in remaining:
            succ = [s for s in dep.successors(n) if s not in fvs]
            if succ:
                view.add_net(f"e_{n}", n, succ)
        for comp in strongly_connected_components(view):
            assert len(comp) == 1
            assert comp[0] not in view.successors(comp[0])

    def test_area_accounting(self, s27, s27_graph):
        res = partial_scan_baseline(s27, s27_graph)
        assert res.scan_area_units == res.n_scanned * SCAN_MUX_UNITS
        assert 0 < res.n_scanned <= res.n_dffs
        assert 0 < res.pct_overhead < 100

    def test_acyclic_circuit_needs_no_scan(self, pipeline):
        g = build_circuit_graph(pipeline, with_po_nodes=False)
        res = partial_scan_baseline(pipeline, g)
        assert res.n_scanned == 0
        assert res.pct_overhead == 0.0

    def test_generated_circuit(self, s510):
        g = build_circuit_graph(s510, with_po_nodes=False)
        res = partial_scan_baseline(s510, g)
        assert res.n_scanned <= 6  # s510 has 6 DFFs


class TestPETComparison:
    @pytest.fixture(scope="class")
    def s27_compiled(self):
        return Merced(MercedConfig(lk=3, seed=7)).run_named("s27")

    def test_ppet_is_faster(self, s27_compiled):
        cmp = compare_pet_ppet(s27_compiled.partition, s27_compiled.plan)
        assert cmp.ppet_cycles <= cmp.pet_cycles
        assert cmp.speedup >= 1.0

    def test_pet_hardware_is_cheaper(self, s27_compiled):
        cmp = compare_pet_ppet(s27_compiled.partition, s27_compiled.plan)
        # PPET pays area for concurrency
        assert cmp.ppet_cbit_cost_dff >= cmp.pet_tpg_cost_dff

    def test_cycle_arithmetic(self, s27_compiled):
        cmp = compare_pet_ppet(s27_compiled.partition, s27_compiled.plan)
        assert cmp.pet_cycles == sum(
            a.testing_time for a in s27_compiled.plan.assignments
        )

    def test_speedup_grows_with_segments(self):
        """More concurrent segments, larger PET/PPET time gap."""
        small = Merced(MercedConfig(lk=6, seed=7)).run_named("s27")
        big = Merced(MercedConfig(lk=3, seed=7)).run_named("s27")
        cmp_small = compare_pet_ppet(small.partition, small.plan)
        cmp_big = compare_pet_ppet(big.partition, big.plan)
        assert cmp_big.n_segments >= cmp_small.n_segments
