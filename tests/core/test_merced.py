"""The Merced compiler end to end (Table 2)."""

import pytest

from repro import Merced, MercedConfig
from repro.circuits import load_circuit
from repro.partition import check_pic


@pytest.fixture(scope="module")
def s27_report():
    return Merced(MercedConfig(lk=3, seed=7)).run_named("s27")


class TestReport:
    def test_partition_satisfies_pic(self, s27_report):
        assert (
            check_pic(s27_report.partition, beta=s27_report.config.beta) == []
        )

    def test_row_fields(self, s27_report):
        row = s27_report.row
        assert row.circuit == "s27"
        assert row.n_dffs == 3
        assert row.n_dffs_on_scc == 3
        assert row.n_cut_nets_on_scc <= row.n_cut_nets
        assert row.cpu_seconds > 0

    def test_plan_matches_partition(self, s27_report):
        nonempty = [
            c for c in s27_report.partition.clusters if c.input_count > 0
        ]
        assert len(s27_report.plan.assignments) == len(nonempty)

    def test_cost_positive(self, s27_report):
        assert s27_report.cost_dff > 0

    def test_render_mentions_key_numbers(self, s27_report):
        text = s27_report.render()
        assert "s27" in text
        assert "l_k=3" in text
        assert "with retiming" in text

    def test_area_comparison_direction(self, s27_report):
        a = s27_report.area
        assert a.pct_with_retiming <= a.pct_without_retiming


class TestOptions:
    def test_merge_disabled(self):
        report = Merced(
            MercedConfig(lk=3, seed=7, merge_clusters=False)
        ).run_named("s27")
        assert report.n_merges == 0
        # unmerged partitions are more numerous
        merged = Merced(MercedConfig(lk=3, seed=7)).run_named("s27")
        assert report.n_partitions >= merged.n_partitions
        assert report.cost_dff >= merged.cost_dff

    def test_solver_accounting(self):
        from repro.core import compile_circuit

        area = compile_circuit(
            load_circuit("s27"), MercedConfig(lk=3, seed=7)
        ).exact_area
        assert 0 <= area.n_retimable <= area.n_cut_nets

    def test_determinism(self):
        r1 = Merced(MercedConfig(lk=3, seed=7)).run_named("s27")
        r2 = Merced(MercedConfig(lk=3, seed=7)).run_named("s27")
        assert [sorted(c.nodes) for c in r1.partition.clusters] == [
            sorted(c.nodes) for c in r2.partition.clusters
        ]
        assert r1.cost_dff == r2.cost_dff

    def test_bigger_lk_fewer_cuts(self):
        cuts = {}
        for lk in (3, 6):
            r = Merced(MercedConfig(lk=lk, seed=7)).run_named("s27")
            cuts[lk] = r.area.n_cut_nets
        assert cuts[6] <= cuts[3]

    def test_generated_circuit_run(self):
        cfg = MercedConfig(lk=16, seed=3, min_visit=5)
        report = Merced(cfg).run_named("s510")
        assert report.partition.max_input_count() <= 16
        assert report.circuit_stats.area_units == 547
        report.partition.validate()
