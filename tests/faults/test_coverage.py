"""Coverage aggregation."""

import pytest

from repro.faults import CoverageReport, StuckAtFault


def f(name, v=0):
    return StuckAtFault(name, v)


class TestReport:
    def test_empty_report_full_coverage(self):
        assert CoverageReport().coverage == 1.0

    def test_add_segment(self):
        r = CoverageReport()
        r.add_segment(0, [f("a")], [f("a"), f("b")])
        assert r.coverage == 0.5
        assert r.undetected == {f("b")}
        assert r.per_segment[0] == (1, 2)

    def test_union_across_segments(self):
        r = CoverageReport()
        r.add_segment(0, [f("a")], [f("a"), f("b")])
        r.add_segment(1, [f("b")], [f("b"), f("c")])
        assert r.coverage == pytest.approx(2 / 3)

    def test_render_contains_percentages(self):
        r = CoverageReport()
        r.add_segment(3, [f("a")], [f("a")])
        text = r.render()
        assert "100.00%" in text
        assert "segment" in text

