"""MercedReport rendering and PartitionRow plumbing."""

import pytest

from repro import Merced, MercedConfig
from repro.core import format_table
from repro.core.cost import CBITAreaComparison
from repro.core.result import PartitionRow


class TestPartitionRow:
    def test_as_tuple_order(self):
        row = PartitionRow("x", 10, 7, 5, 9, 1.5)
        assert row.as_tuple() == ("x", 10, 7, 5, 9, 1.5)


class TestRenderTable12ZeroRows:
    def test_zero_cut_rows_render_as_zero(self):
        zero = CBITAreaComparison(
            circuit="tiny",
            lk=24,
            circuit_area_units=500,
            n_cut_nets=0,
            n_cut_nets_on_scc=0,
            n_retimable=0,
        )
        row = (zero.pct_with_retiming, zero.pct_without_retiming)
        assert row == (0.0, 0.0)
        # the Table 12 bench renders them with format_table: 0.0 like the
        # paper's zero entries
        text = format_table(["w/ ret", "w/o ret"], [row])
        assert text.splitlines()[-1].split() == ["0.0", "|", "0.0"]

    def test_report_render_is_single_block(self):
        report = Merced(MercedConfig(lk=3, seed=7)).run_named("s27")
        text = report.render()
        assert text.count("Merced report") == 1
        assert all(line.startswith(("Merced", "  ")) for line in text.splitlines())
