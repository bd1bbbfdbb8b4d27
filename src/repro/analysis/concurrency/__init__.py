"""Concurrency static analysis: CFG/dataflow engine + CONC rules.

The compile service is genuinely concurrent — an asyncio event loop,
thread-pool executors with an async-exception watchdog, multiprocess
sweep workers, signal-driven drain, lock-guarded caches — and its hazard
classes (blocking the event loop, unguarded shared mutation,
lock-order inversion, unsafe signal handlers, fork-after-threads) are
invisible to tests that happen not to lose the race.  This package
catches them statically:

* :mod:`~repro.analysis.concurrency.cfg` — statement-level CFGs with
  branch/loop/try edges and lock acquire/release annotations;
* :mod:`~repro.analysis.concurrency.dataflow` — the forward worklist
  solver and the locks-held must-analysis;
* :mod:`~repro.analysis.concurrency.summaries` — module/project
  indexing, call resolution, and call-graph blocking-ness summaries;
* :mod:`~repro.analysis.concurrency.conc_rules` — the CONC001–CONC006
  hazard rules;
* :mod:`~repro.analysis.concurrency.engine` — the shared KRN+CONC
  engine behind ``merced lint-code`` and its baseline gate.
"""

from .cfg import CFG, CFGNode, build_cfg, expr_name, is_lockish
from .conc_rules import CONC_RULES, run_concurrency_rules
from .dataflow import forward_dataflow, locks_held
from .engine import (
    DEFAULT_BASELINE,
    analyze_paths,
    finding_fingerprint,
    lint_code_main,
    load_baseline,
    write_baseline,
)
from .summaries import (
    BLOCKING_ATTRS,
    BLOCKING_CALLS,
    ClassInfo,
    FunctionInfo,
    ModuleIndex,
    ProjectIndex,
)

__all__ = [
    "CFG",
    "CFGNode",
    "build_cfg",
    "expr_name",
    "is_lockish",
    "forward_dataflow",
    "locks_held",
    "BLOCKING_ATTRS",
    "BLOCKING_CALLS",
    "ModuleIndex",
    "ProjectIndex",
    "FunctionInfo",
    "ClassInfo",
    "CONC_RULES",
    "run_concurrency_rules",
    "analyze_paths",
    "finding_fingerprint",
    "load_baseline",
    "write_baseline",
    "lint_code_main",
    "DEFAULT_BASELINE",
]
