"""Shared diagnostics model for the static-analysis fronts.

Both linters — the circuit/DFT linter (:mod:`repro.analysis.circuit_rules`)
and the codebase kernel-invariant linter (:mod:`repro.analysis.kernel_lint`)
— emit the same currency: a :class:`Diagnostic` carrying a stable rule id
(``NET005``, ``KRN001``, ...), a severity, a location (signal name, SCC id,
``path:line``, ...), a human message and an optional fix-it hint.  A
:class:`DiagnosticReport` bundles the findings of one lint run together
with the rules that were checked, and renders them as text or JSON with
severity thresholds and per-rule suppression applied uniformly.

Severities are plain strings ordered ``info < warning < error``
(:data:`SEVERITIES`); :func:`severity_at_least` implements threshold
filtering without an enum import at every call site.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, Sequence, Tuple

__all__ = [
    "SEVERITIES",
    "severity_at_least",
    "Diagnostic",
    "DiagnosticReport",
]

#: Recognized severities, weakest first.  The index is the ordering.
SEVERITIES: Tuple[str, ...] = ("info", "warning", "error")

_RANK: Dict[str, int] = {s: i for i, s in enumerate(SEVERITIES)}


def severity_at_least(severity: str, threshold: str) -> bool:
    """``True`` when ``severity`` ranks at or above ``threshold``.

    Example:
        >>> severity_at_least("error", "warning")
        True
        >>> severity_at_least("info", "warning")
        False
    """
    try:
        return _RANK[severity] >= _RANK[threshold]
    except KeyError:
        raise ValueError(
            f"unknown severity {severity!r}/{threshold!r}; "
            f"expected one of {SEVERITIES}"
        ) from None


@dataclass(frozen=True)
class Diagnostic:
    """One finding of a lint rule.

    Attributes:
        rule_id: stable id of the rule that fired (``NET001``, ``KRN002``).
        severity: one of :data:`SEVERITIES`.
        location: what the finding is about — a signal/cell name, an SCC
            label, a ``path:line`` source position, or ``"config"``.
        message: human-readable description of the problem.
        fixit_hint: optional one-line suggestion for fixing it.
    """

    rule_id: str
    severity: str
    location: str
    message: str
    fixit_hint: str = ""

    def __post_init__(self) -> None:
        """Reject severities outside :data:`SEVERITIES` at construction."""
        if self.severity not in _RANK:
            raise ValueError(
                f"unknown severity {self.severity!r}; "
                f"expected one of {SEVERITIES}"
            )

    def as_dict(self) -> Dict[str, str]:
        """JSON-ready plain-dict view (stable key order)."""
        out = {
            "rule_id": self.rule_id,
            "severity": self.severity,
            "location": self.location,
            "message": self.message,
        }
        if self.fixit_hint:
            out["fixit_hint"] = self.fixit_hint
        return out

    def render(self) -> str:
        """One-line text rendering, ``SEVERITY RULE location: message``."""
        line = (
            f"{self.severity.upper():<7} {self.rule_id:<7} "
            f"{self.location}: {self.message}"
        )
        if self.fixit_hint:
            line += f"\n{'':15} fix: {self.fixit_hint}"
        return line


@dataclass(frozen=True)
class DiagnosticReport:
    """The outcome of one lint run: findings plus the rules checked.

    ``rules_checked`` holds the :class:`~repro.analysis.rules.Rule`
    objects (duck-typed here: anything with ``rule_id``, ``severity``
    and ``title``) that ran, so renderers can show the full catalog —
    including rules that came out clean.
    """

    subject: str
    diagnostics: Tuple[Diagnostic, ...] = ()
    rules_checked: Tuple[object, ...] = field(default=(), repr=False)

    @property
    def errors(self) -> Tuple[Diagnostic, ...]:
        """Findings with error severity."""
        return tuple(d for d in self.diagnostics if d.severity == "error")

    @property
    def warnings(self) -> Tuple[Diagnostic, ...]:
        """Findings with warning severity."""
        return tuple(d for d in self.diagnostics if d.severity == "warning")

    @property
    def infos(self) -> Tuple[Diagnostic, ...]:
        """Findings with info severity."""
        return tuple(d for d in self.diagnostics if d.severity == "info")

    @property
    def has_errors(self) -> bool:
        """``True`` when at least one error-severity finding exists."""
        return any(d.severity == "error" for d in self.diagnostics)

    def counts_by_rule(self) -> Dict[str, int]:
        """Findings per rule id, in first-seen order."""
        counts: Dict[str, int] = {}
        for d in self.diagnostics:
            counts[d.rule_id] = counts.get(d.rule_id, 0) + 1
        return counts

    def filtered(
        self,
        suppress: Sequence[str] = (),
        min_severity: str = "info",
    ) -> "DiagnosticReport":
        """Copy with suppressed rules dropped and a severity floor applied.

        Args:
            suppress: rule ids whose findings are discarded entirely.
            min_severity: findings below this severity are discarded.
        """
        drop = {r.strip().upper() for r in suppress if r.strip()}
        kept = tuple(
            d
            for d in self.diagnostics
            if d.rule_id not in drop
            and severity_at_least(d.severity, min_severity)
        )
        return DiagnosticReport(
            subject=self.subject,
            diagnostics=kept,
            rules_checked=self.rules_checked,
        )

    # ------------------------------------------------------------------
    # rendering
    # ------------------------------------------------------------------
    def summary(self) -> str:
        """One-line count summary, e.g. ``2 error(s), 1 warning(s)``."""
        return (
            f"{len(self.errors)} error(s), {len(self.warnings)} "
            f"warning(s), {len(self.infos)} info"
        )

    def render_text(self) -> str:
        """Multi-line human-readable report.

        One line per finding, then the catalog of rules that ran with
        per-rule hit counts, so a report always names every rule id it
        covered.
        """
        lines = [f"lint report for {self.subject}: {self.summary()}"]
        for d in self.diagnostics:
            lines.append("  " + d.render())
        if self.rules_checked:
            counts = self.counts_by_rule()
            lines.append(f"rules checked ({len(self.rules_checked)}):")
            for rule in self.rules_checked:
                n = counts.get(rule.rule_id, 0)
                mark = f"{n} finding(s)" if n else "clean"
                lines.append(
                    f"  {rule.rule_id:<7} [{rule.severity:<7}] "
                    f"{rule.title}: {mark}"
                )
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready plain-dict view of the whole report."""
        return {
            "subject": self.subject,
            "n_errors": len(self.errors),
            "n_warnings": len(self.warnings),
            "n_info": len(self.infos),
            "diagnostics": [d.as_dict() for d in self.diagnostics],
            "rules_checked": [
                {
                    "rule_id": r.rule_id,
                    "severity": r.severity,
                    "title": r.title,
                    "findings": self.counts_by_rule().get(r.rule_id, 0),
                }
                for r in self.rules_checked
            ],
        }

    def render_json(self) -> str:
        """JSON rendering of :meth:`to_dict`."""
        return json.dumps(self.to_dict(), indent=2)
