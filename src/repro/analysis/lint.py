"""Circuit-lint entry points: library API, pipeline gate, bench-file path.

* :func:`lint_circuit` — run the circuit rule catalog over a parsed
  :class:`~repro.netlist.netlist.Netlist` and return a
  :class:`~repro.analysis.diagnostics.DiagnosticReport`.
* :func:`lint_gate` — the hard gate ``Merced.run`` executes at entry:
  error findings abort the run with a rendered report (feasibility
  errors keep raising :class:`~repro.errors.InfeasiblePartitionError`
  for sweep-row compatibility; structural errors raise
  :class:`~repro.errors.AnalysisError`), warnings thread into the
  active perf trace as counters.
* :func:`lint_bench_file` / :func:`lint_bench_text` — lint ``.bench``
  sources, surviving parse failures (multiply-driven signals are only
  observable pre-parse; see ``NET006``).
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..config import MercedConfig
from ..errors import AnalysisError, BenchParseError, InfeasiblePartitionError
from ..netlist.netlist import Netlist
from ..perf import count as perf_count
from .diagnostics import Diagnostic, DiagnosticReport
from .rules import RuleContext, rule_catalog, run_rules

__all__ = [
    "lint_circuit",
    "lint_gate",
    "lint_bench_text",
    "lint_bench_file",
    "FEASIBILITY_RULES",
]

#: Error rules that flag (l_k, β)-infeasibility rather than a broken
#: circuit; the gate maps them to InfeasiblePartitionError so sweep
#: error rows keep their historical error_type.
FEASIBILITY_RULES = frozenset({"BUD001", "BUD003"})


def lint_circuit(
    netlist: Netlist,
    config: Optional[MercedConfig] = None,
    *,
    graph=None,
    scc_index=None,
    bench_text: Optional[str] = None,
    rules: Optional[Sequence[str]] = None,
    suppress: Sequence[str] = (),
    min_severity: str = "info",
) -> DiagnosticReport:
    """Run the circuit rule catalog and return the report.

    Args:
        netlist: the circuit under lint.
        config: Merced parameters; the ``BUD``/``SIM`` rules read
            ``l_k``/β from here (defaults used when omitted).
        graph: an existing :class:`~repro.graphs.digraph.CircuitGraph`
            to reuse (``Merced.run`` passes its own so the linter never
            builds a second graph).
        scc_index: an existing SCC index to reuse.
        bench_text: raw ``.bench`` source, enabling the pre-parse
            ``NET006`` multiply-driven scan.
        rules: restrict the run to these rule ids (default: all).
        suppress: rule ids whose findings are dropped from the report.
        min_severity: findings below this severity are dropped.
    """
    catalog = rule_catalog(rules)
    ctx = RuleContext(
        netlist,
        config=config,
        graph=graph,
        scc_index=scc_index,
        bench_text=bench_text,
    )
    diags = run_rules(catalog, ctx)
    report = DiagnosticReport(
        subject=netlist.name,
        diagnostics=tuple(diags),
        rules_checked=tuple(catalog),
    )
    return report.filtered(suppress=suppress, min_severity=min_severity)


def lint_gate(
    netlist: Netlist,
    config: Optional[MercedConfig] = None,
    *,
    graph=None,
    scc_index=None,
) -> DiagnosticReport:
    """Entry gate for ``Merced.run``: abort on errors, count warnings.

    Raises:
        InfeasiblePartitionError: every error finding comes from a
            feasibility rule (:data:`FEASIBILITY_RULES`) — the point is
            doomed for this ``(l_k, β)`` but the circuit is fine.
        AnalysisError: at least one structural error finding.

    Both exception types carry the machine-readable findings as
    ``exc.lint_diagnostics`` (a list of dicts); the message is the
    rendered text report.  Warnings and infos do not abort: they are
    counted into the active perf trace (``lint_warnings``,
    ``lint_info`` and per-rule ``lint.<RULE>`` counters) so
    ``merced --profile`` surfaces them.
    """
    report = lint_circuit(netlist, config, graph=graph, scc_index=scc_index)
    errors = report.errors
    if errors:
        feasibility_only = all(
            d.rule_id in FEASIBILITY_RULES for d in errors
        )
        exc_cls = (
            InfeasiblePartitionError if feasibility_only else AnalysisError
        )
        exc = exc_cls("circuit lint failed:\n" + report.render_text())
        exc.lint_diagnostics = [d.as_dict() for d in report.diagnostics]
        raise exc
    if report.warnings:
        perf_count("lint_warnings", len(report.warnings))
    if report.infos:
        perf_count("lint_info", len(report.infos))
    for rule_id, n in report.counts_by_rule().items():
        perf_count(f"lint.{rule_id}", n)
    return report


def lint_bench_text(
    bench_text: str,
    config: Optional[MercedConfig] = None,
    name: str = "bench",
    **kwargs,
) -> DiagnosticReport:
    """Lint raw ``.bench`` source text, surviving parse failures.

    When the text parses, this is :func:`lint_circuit` with the source
    attached (so ``NET006`` can scan it).  When parsing fails — which is
    exactly what a multiply-driven signal does — the report carries the
    pre-parse findings plus a ``NET006``-style parse diagnostic instead
    of raising.
    """
    from ..netlist.bench import parse_bench
    from .circuit_rules import scan_bench_drivers

    try:
        netlist = parse_bench(bench_text, name=name)
    except BenchParseError as exc:
        diags = [
            Diagnostic(
                rule_id="NET006",
                severity="error",
                location=sig,
                message=f"signal has {n} drivers in the .bench source",
                fixit_hint="keep a single driver per signal",
            )
            for sig, n in scan_bench_drivers(bench_text).items()
            if n > 1
        ]
        if not diags:
            diags = [
                Diagnostic(
                    rule_id="NET005",
                    severity="error",
                    location=f"line {exc.line_no}" if exc.line_no else name,
                    message=f"bench source does not parse: {exc}",
                    fixit_hint="fix the .bench syntax",
                )
            ]
        return DiagnosticReport(
            subject=name,
            diagnostics=tuple(diags),
            rules_checked=tuple(rule_catalog()),
        ).filtered(
            suppress=kwargs.get("suppress", ()),
            min_severity=kwargs.get("min_severity", "info"),
        )
    return lint_circuit(
        netlist, config, bench_text=bench_text, **kwargs
    )


def lint_bench_file(
    path, config: Optional[MercedConfig] = None, **kwargs
) -> DiagnosticReport:
    """Lint a ``.bench`` file on disk (see :func:`lint_bench_text`)."""
    with open(path) as fh:
        text = fh.read()
    import os

    name = os.path.splitext(os.path.basename(str(path)))[0]
    return lint_bench_text(text, config, name=name, **kwargs)
