"""The code-lint engine: one parse, two rule families, one report.

:func:`analyze_paths` parses every ``.py`` file once and drives both
AST rule families over the shared trees:

* **KRN** — the kernel determinism/pairing invariants
  (:mod:`repro.analysis.kernel_lint` supplies the per-tree check and
  the cross-file KRN004 test-mention pass);
* **CONC** — the concurrency hazard rules
  (:mod:`repro.analysis.concurrency.conc_rules` over the
  :class:`~repro.analysis.concurrency.summaries.ProjectIndex`).

``merced lint-code`` (:func:`lint_code_main`) adds the **baseline
gate**: a committed JSON file of fingerprinted findings that are
tolerated (pre-existing debt); anything not in the baseline fails the
run, warnings included — so CI starts hard the day the analyzer lands.
Fingerprints hash ``rule|path|message`` (not line numbers), surviving
unrelated edits to the same file.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..diagnostics import Diagnostic, DiagnosticReport, severity_at_least
from ..kernel_lint import (
    KERNEL_RULES,
    _iter_py_files,
    _suppressed,
    cross_check_references,
    lint_tree,
)
from .conc_rules import CONC_RULES, run_concurrency_rules
from .summaries import ModuleIndex, ProjectIndex

__all__ = [
    "analyze_paths",
    "finding_fingerprint",
    "load_baseline",
    "write_baseline",
    "lint_code_main",
    "DEFAULT_BASELINE",
]

DEFAULT_BASELINE = "lint_code_baseline.json"


def _parse_files(
    paths: Sequence[str],
) -> Tuple[List[ModuleIndex], List[Diagnostic]]:
    """Parse every ``.py`` under ``paths`` once; collect parse errors."""
    import ast

    modules: List[ModuleIndex] = []
    errors: List[Diagnostic] = []
    for path in _iter_py_files(paths):
        with open(path) as fh:
            code = fh.read()
        try:
            tree = ast.parse(code, filename=path)
        except SyntaxError as exc:
            errors.append(
                Diagnostic(
                    rule_id="KRN001",
                    severity="error",
                    location=f"{path}:{exc.lineno or 0}",
                    message=f"file does not parse: {exc.msg}",
                    fixit_hint="",
                )
            )
            continue
        modules.append(ModuleIndex(path, code, tree))
    return modules, errors


def analyze_paths(
    paths: Sequence[str],
    tests_dir: Optional[str] = None,
    families: Sequence[str] = ("KRN", "CONC"),
) -> DiagnosticReport:
    """Run the selected rule families over every ``.py`` under ``paths``.

    Each file is parsed exactly once; the KRN checks reuse the same
    trees the concurrency index is built from.  ``tests_dir`` feeds the
    KRN004 reference-twin cross-check (KRN family only).
    """
    modules, diags = _parse_files(paths)
    if "KRN" in families:
        all_refs: List[Tuple[str, str, int]] = []
        for module in modules:
            file_diags, refs = lint_tree(
                module.tree, module.code, module.path
            )
            diags.extend(file_diags)
            all_refs.extend(
                (name, module.path, lineno) for name, lineno in refs
            )
        diags.extend(cross_check_references(all_refs, tests_dir))
    if "CONC" in families:
        project = ProjectIndex(modules)
        lines_of: Dict[str, List[str]] = {
            m.path: m.lines for m in modules
        }
        for rule_id, severity, path, lineno, message, fixit in (
            run_concurrency_rules(project)
        ):
            if _suppressed(lines_of.get(path, ()), lineno, rule_id):
                continue
            diags.append(
                Diagnostic(
                    rule_id=rule_id,
                    severity=severity,
                    location=f"{path}:{lineno}",
                    message=message,
                    fixit_hint=fixit,
                )
            )
    rules: Tuple = ()
    if "KRN" in families:
        rules += KERNEL_RULES
    if "CONC" in families:
        rules += CONC_RULES
    diags.sort(key=_diag_sort_key)
    return DiagnosticReport(
        subject=", ".join(paths),
        diagnostics=tuple(diags),
        rules_checked=rules,
    )


def _diag_sort_key(diag: Diagnostic) -> Tuple[str, int, str, str]:
    path, _, line = diag.location.rpartition(":")
    try:
        return (path, int(line), diag.rule_id, diag.message)
    except ValueError:
        return (diag.location, 0, diag.rule_id, diag.message)


def finding_fingerprint(diag: Diagnostic) -> str:
    """Line-number-independent identity of a finding for baselining."""
    path = os.path.normpath(diag.location.rsplit(":", 1)[0])
    raw = f"{diag.rule_id}|{path}|{diag.message}"
    return hashlib.sha256(raw.encode()).hexdigest()[:16]


def load_baseline(path: str) -> Set[str]:
    """The fingerprints a committed baseline file tolerates."""
    with open(path) as fh:
        data = json.load(fh)
    return {entry["fingerprint"] for entry in data.get("findings", ())}


def write_baseline(report: DiagnosticReport, path: str) -> int:
    """Write ``report``'s findings as the new baseline; returns count."""
    findings = [
        {
            "fingerprint": finding_fingerprint(d),
            "rule_id": d.rule_id,
            "location": d.location,
            "message": d.message,
        }
        for d in report.diagnostics
    ]
    findings.sort(key=lambda f: (f["location"], f["rule_id"]))
    payload = {"version": 1, "findings": findings}
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return len(findings)


def _drop_baselined(
    report: DiagnosticReport, baseline: Set[str]
) -> DiagnosticReport:
    kept = tuple(
        d
        for d in report.diagnostics
        if finding_fingerprint(d) not in baseline
    )
    return DiagnosticReport(
        subject=report.subject,
        diagnostics=kept,
        rules_checked=report.rules_checked,
    )


def lint_code_main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI driver behind ``merced lint-code``.

    Exit status 0 only when no warning-or-worse finding survives the
    baseline and the filters — warnings are fatal by design (the CI
    gate starts hard; use the baseline file for tolerated debt).
    """
    import argparse

    parser = argparse.ArgumentParser(
        prog="merced lint-code",
        description="Static concurrency + kernel-invariant analysis "
        "(KRN001-004, CONC001-006) over Python sources.",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to analyze (default: src)",
    )
    parser.add_argument(
        "--json", action="store_true", help="emit the report as JSON"
    )
    parser.add_argument(
        "--min-severity",
        default=None,
        choices=["info", "warning", "error"],
        help="drop findings below this severity",
    )
    parser.add_argument(
        "--suppress",
        action="append",
        default=[],
        metavar="RULE[,RULE...]",
        help="drop findings of these rule ids",
    )
    parser.add_argument(
        "--tests-dir",
        default=None,
        help="tests directory for the KRN004 cross-check "
        "(default: ./tests when it exists)",
    )
    parser.add_argument(
        "--baseline",
        default=DEFAULT_BASELINE,
        help=f"baseline file of tolerated findings "
        f"(default: {DEFAULT_BASELINE})",
    )
    parser.add_argument(
        "--no-baseline",
        action="store_true",
        help="ignore the baseline file even if present",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="write the current findings as the new baseline and exit 0",
    )
    args = parser.parse_args(argv)

    tests_dir = args.tests_dir
    if tests_dir is None and os.path.isdir("tests"):
        tests_dir = "tests"
    suppress = [
        r for chunk in args.suppress for r in chunk.split(",") if r
    ]

    report = analyze_paths(args.paths, tests_dir=tests_dir)
    report = report.filtered(
        suppress=suppress, min_severity=args.min_severity or "info"
    )

    if args.write_baseline:
        count = write_baseline(report, args.baseline)
        print(f"wrote {count} finding(s) to {args.baseline}")
        return 0

    if not args.no_baseline and os.path.isfile(args.baseline):
        report = _drop_baselined(report, load_baseline(args.baseline))

    print(report.render_json() if args.json else report.render_text())
    fatal = sum(
        1
        for d in report.diagnostics
        if severity_at_least(d.severity, "warning")
    )
    return 1 if fatal else 0
