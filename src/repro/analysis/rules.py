"""Pluggable rule registry and the lazy per-run rule context.

A :class:`Rule` pairs a stable id (``NET005``, ``BUD003``, ...) with a
fixed severity, a short title, an optional pointer to the paper equation
it guards, and a check function.  Circuit rules register themselves with
the :func:`rule` decorator (importing :mod:`repro.analysis.circuit_rules`
populates the registry); callers run them through
:func:`repro.analysis.lint.lint_circuit`.

Check functions receive a :class:`RuleContext` and yield
``(location, message, fixit_hint)`` tuples; the runner stamps each with
the rule's id and severity to build :class:`~repro.analysis.diagnostics.
Diagnostic` objects.  The context is *lazy*: the circuit graph, its
:class:`~repro.graphs.csr.CompiledGraph` and the SCC index are built at
most once and only when a rule asks — and they reuse instances the
caller already has (``Merced.run`` passes its cached graph/SCC index, so
the entry gate adds no extra graph build).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..config import MercedConfig
from ..netlist.netlist import Netlist

#: A check yields (location, message, fixit_hint) findings.
Finding = Tuple[str, str, str]

__all__ = [
    "Finding",
    "Rule",
    "RuleContext",
    "rule",
    "rule_catalog",
    "run_rules",
]


@dataclass(frozen=True)
class Rule:
    """One registered lint rule: id, severity, title and check function.

    Attributes:
        rule_id: stable identifier rendered in reports (``NET001``).
        severity: one of ``info``/``warning``/``error`` — fixed per rule.
        title: short human name shown in the rule catalog.
        paper_ref: the paper construct this rule guards (``Eq. 6``), if
            any; surfaces in docs and the DESIGN.md rule table.
        check: generator of findings; ``None`` for metadata-only rules
            (the kernel linter drives its checks through one AST walk).
    """

    rule_id: str
    severity: str
    title: str
    paper_ref: str = ""
    check: Optional[Callable[["RuleContext"], Iterator[Finding]]] = field(
        default=None, repr=False, compare=False
    )


#: Registry of circuit rules in registration order, keyed by rule id.
_CIRCUIT_RULES: "Dict[str, Rule]" = {}


def rule(
    rule_id: str, severity: str, title: str, paper_ref: str = ""
) -> Callable:
    """Decorator registering a circuit-lint check function as a rule.

    Example::

        @rule("NET001", "warning", "dangling cell")
        def _net001(ctx):
            yield ("g3", "cell g3 drives nothing", "remove it")
    """

    def decorate(fn: Callable[["RuleContext"], Iterator[Finding]]):
        if rule_id in _CIRCUIT_RULES:
            raise ValueError(f"duplicate rule id {rule_id}")
        _CIRCUIT_RULES[rule_id] = Rule(
            rule_id=rule_id,
            severity=severity,
            title=title,
            paper_ref=paper_ref,
            check=fn,
        )
        return fn

    return decorate


def rule_catalog(
    only: Optional[Sequence[str]] = None,
) -> List[Rule]:
    """The registered circuit rules, optionally restricted to ``only`` ids.

    Importing this module's sibling :mod:`repro.analysis.circuit_rules`
    fills the registry; this accessor imports it on demand so callers
    never see an empty catalog.
    """
    from . import circuit_rules as _defs  # noqa: F401  (registration)

    if only is None:
        return list(_CIRCUIT_RULES.values())
    unknown = [r for r in only if r not in _CIRCUIT_RULES]
    if unknown:
        raise ValueError(f"unknown rule id(s): {', '.join(unknown)}")
    return [_CIRCUIT_RULES[r] for r in only]


class RuleContext:
    """Everything a circuit rule may inspect, built lazily and shared.

    Rules must treat the context as read-only.  Graph-level accessors
    (:attr:`graph`, :attr:`cg`, :attr:`scc_index`) return ``None`` when
    the netlist is too broken to build a graph (e.g. undriven signals) —
    rules that need them simply skip, letting the structural rules carry
    the report.
    """

    def __init__(
        self,
        netlist: Netlist,
        config: Optional[MercedConfig] = None,
        graph=None,
        scc_index=None,
        bench_text: Optional[str] = None,
    ):
        self.netlist = netlist
        self.config = config or MercedConfig()
        self.bench_text = bench_text
        self._graph = graph
        self._scc_index = scc_index
        self._cg = None
        self._graph_failed = False
        self._fanout = None
        self._output_set = None

    # ------------------------------------------------------------------
    # cheap netlist views
    # ------------------------------------------------------------------
    @property
    def fanout(self) -> Dict[str, list]:
        """``signal → reader cells`` map (built once)."""
        if self._fanout is None:
            self._fanout = self.netlist.fanout_map()
        return self._fanout

    @property
    def output_set(self) -> Set[str]:
        """Primary-output signal names as a set (built once)."""
        if self._output_set is None:
            self._output_set = set(self.netlist.outputs)
        return self._output_set

    # ------------------------------------------------------------------
    # graph views (lazy, failure-tolerant)
    # ------------------------------------------------------------------
    @property
    def graph(self):
        """The :class:`~repro.graphs.digraph.CircuitGraph`, or ``None``.

        Built without PO sink nodes (the pipeline's configuration) the
        first time a rule asks; ``None`` when the netlist's structural
        problems make the build impossible.
        """
        if self._graph is None and not self._graph_failed:
            from ..graphs.build import build_circuit_graph

            try:
                self._graph = build_circuit_graph(
                    self.netlist, with_po_nodes=False
                )
            except Exception:
                self._graph_failed = True
        return self._graph

    @property
    def cg(self):
        """The cached :class:`~repro.graphs.csr.CompiledGraph`, or ``None``.

        Uses :func:`~repro.graphs.csr.compile_graph`, which caches on the
        graph keyed by ``topo_version`` — when ``Merced.run`` hands its
        graph over, the linter shares the pipeline's arrays instead of
        building new ones.
        """
        if self._cg is None and self.graph is not None:
            from ..graphs.csr import compile_graph

            self._cg = compile_graph(self.graph)
        return self._cg

    @property
    def scc_index(self):
        """The :class:`~repro.graphs.scc.SCCIndex`, or ``None``."""
        if self._scc_index is None and self.graph is not None:
            from ..graphs.scc import SCCIndex

            self._scc_index = SCCIndex(self.graph)
        return self._scc_index


def run_rules(
    rules: Iterable[Rule], ctx: RuleContext
) -> List["object"]:
    """Run each rule's check over ``ctx``; return stamped Diagnostics."""
    from .diagnostics import Diagnostic

    out: List[Diagnostic] = []
    for r in rules:
        if r.check is None:
            continue
        for location, message, fixit in r.check(ctx):
            out.append(
                Diagnostic(
                    rule_id=r.rule_id,
                    severity=r.severity,
                    location=location,
                    message=message,
                    fixit_hint=fixit,
                )
            )
    return out
