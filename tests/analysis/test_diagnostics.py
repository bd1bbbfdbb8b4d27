"""Diagnostics core: records, reports, filtering, renderers."""

import json

import pytest

from repro.analysis import (
    Diagnostic,
    DiagnosticReport,
    severity_at_least,
)


def diag(rule="NET001", sev="warning", loc="g1", msg="msg", fix=""):
    return Diagnostic(
        rule_id=rule, severity=sev, location=loc, message=msg, fixit_hint=fix
    )


class TestDiagnostic:
    def test_as_dict_stable_keys(self):
        d = diag(fix="do the thing")
        assert list(d.as_dict()) == [
            "rule_id",
            "severity",
            "location",
            "message",
            "fixit_hint",
        ]

    def test_as_dict_omits_empty_fixit(self):
        assert "fixit_hint" not in diag(fix="").as_dict()

    def test_render_includes_fixit_line(self):
        text = diag(fix="rewire it").render()
        assert "NET001" in text and "g1" in text
        assert "fix: rewire it" in text

    def test_invalid_severity_rejected(self):
        with pytest.raises(ValueError):
            diag(sev="fatal")


class TestSeverityOrdering:
    def test_total_order(self):
        assert severity_at_least("error", "info")
        assert severity_at_least("warning", "warning")
        assert not severity_at_least("info", "warning")


class TestDiagnosticReport:
    def report(self):
        return DiagnosticReport(
            subject="demo",
            diagnostics=(
                diag("NET005", "error", "x"),
                diag("NET001", "warning", "g1"),
                diag("NET001", "warning", "g2"),
                diag("RET002", "info", "scc0"),
            ),
        )

    def test_partitions_by_severity(self):
        r = self.report()
        assert [d.rule_id for d in r.errors] == ["NET005"]
        assert len(r.warnings) == 2
        assert len(r.infos) == 1
        assert r.has_errors and r.diagnostics

    def test_counts_by_rule(self):
        assert self.report().counts_by_rule() == {
            "NET005": 1,
            "NET001": 2,
            "RET002": 1,
        }

    def test_summary(self):
        assert self.report().summary() == "1 error(s), 2 warning(s), 1 info"

    def test_suppression_is_case_insensitive(self):
        r = self.report().filtered(suppress=["net001"])
        assert r.counts_by_rule() == {"NET005": 1, "RET002": 1}

    def test_min_severity_filter(self):
        r = self.report().filtered(min_severity="warning")
        assert all(d.severity != "info" for d in r.diagnostics)

    def test_json_round_trip(self):
        payload = json.loads(self.report().render_json())
        assert payload["subject"] == "demo"
        assert payload["n_errors"] == 1
        assert len(payload["diagnostics"]) == 4

    def test_render_text_lists_clean_rules(self):
        from repro.analysis.rules import Rule

        r = DiagnosticReport(
            subject="demo",
            diagnostics=(),
            rules_checked=(
                Rule(rule_id="NET001", severity="warning", title="dangling"),
            ),
        )
        text = r.render_text()
        assert "clean" in text and "NET001" in text
