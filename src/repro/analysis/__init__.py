"""Static analysis: circuit/DFT lint rules and kernel-invariant checks.

Two fronts share one diagnostics model (:class:`Diagnostic`,
:class:`DiagnosticReport`, a pluggable :class:`Rule` registry, text and
JSON renderers, severity thresholds, per-rule suppression):

* the **circuit linter** (:func:`lint_circuit`, ``merced lint``) runs
  the ``NET``/``GRF``/``RET``/``BUD``/``SIM`` catalog over a netlist
  and its cached :class:`~repro.graphs.csr.CompiledGraph` before any
  pipeline stage — :func:`lint_gate` is the hard gate inside
  :meth:`repro.core.merced.Merced.run`;
* the **code analyzer** (:func:`analyze_paths`, ``merced lint-code``)
  parses the source tree once per file and runs two rule families
  behind a committed-baseline CI gate: the kernel rules
  (``KRN001``–``KRN004``) enforce the determinism/pairing invariants
  the compiled kernels rely on, and the
  concurrency rules build per-function CFGs, lock dataflow and
  call-graph blocking summaries to check the async/thread/signal
  hazards (``CONC001``–``CONC006``).
"""

from .diagnostics import (
    SEVERITIES,
    Diagnostic,
    DiagnosticReport,
    severity_at_least,
)
from .lint import (
    FEASIBILITY_RULES,
    lint_bench_file,
    lint_bench_text,
    lint_circuit,
    lint_gate,
)
from .precheck import SCCBudgetBound, budget_prechecks, scc_cut_lower_bound
from .rules import Rule, RuleContext, rule, rule_catalog

#: The source-tree linters, imported on first access: the compile path
#: only runs the circuit linter.
_LAZY = {
    "HOT_DIRS": "kernel_lint",
    "KERNEL_RULES": "kernel_lint",
    "CONC_RULES": "concurrency",
    "analyze_paths": "concurrency",
    "run_concurrency_rules": "concurrency",
    "lint_code_main": "concurrency",
}

__all__ = [
    "SEVERITIES",
    "Diagnostic",
    "DiagnosticReport",
    "severity_at_least",
    "Rule",
    "RuleContext",
    "rule",
    "rule_catalog",
    "lint_circuit",
    "lint_gate",
    "lint_bench_text",
    "lint_bench_file",
    "FEASIBILITY_RULES",
    "SCCBudgetBound",
    "budget_prechecks",
    "scc_cut_lower_bound",
    "HOT_DIRS",
    "KERNEL_RULES",
    "CONC_RULES",
    "analyze_paths",
    "run_concurrency_rules",
    "lint_code_main",
]


def __getattr__(name):
    if name in _LAZY:
        from importlib import import_module

        return getattr(import_module(f"{__name__}.{_LAZY[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
