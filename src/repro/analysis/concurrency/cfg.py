"""Statement-level control-flow graphs over Python function ASTs.

The concurrency analyzer (CONC rules) needs to reason about *paths*
through a function — "is this attribute write dominated by a lock
acquisition?", "can this coroutine object reach the function exit
without being awaited?" — which a flat AST walk cannot answer.  This
module builds a small, conservative CFG per function:

* one node per statement, plus synthetic ``entry``/``exit`` nodes;
* ``if``/``while``/``for`` contribute branch and loop back edges
  (``break``/``continue``/``return``/``raise`` cut the fall-through);
* ``try`` bodies conservatively edge every contained statement to every
  handler head (an exception may surface anywhere), handlers and
  ``finally`` chain as written;
* ``with`` blocks contribute a *enter*/*exit* node pair annotated with
  the locks they acquire and release, which is what the locks-held
  dataflow (:mod:`repro.analysis.concurrency.dataflow`) keys on.
  Explicit ``lock.acquire()`` / ``lock.release()`` expression
  statements are annotated the same way.

Lock identity is syntactic: the dotted expression text
(``self._lock``, ``_STATS_LOCK``) of anything whose trailing name
looks lock-like (:func:`is_lockish`).  That is exactly the seed the
ISSUE calls for — ``with self._lock:`` patterns as used by
:class:`repro.exec.cache.HotCache` — and it keeps the analysis
dependency-free and fast.

Nested ``def``/``async def``/``lambda``/``class`` bodies are *not*
descended into: they execute in their own scope at their own time, so
each function gets its own CFG (see
:meth:`~repro.analysis.concurrency.summaries.ProjectIndex`).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Sequence, Tuple

__all__ = [
    "CFGNode",
    "CFG",
    "build_cfg",
    "expr_name",
    "is_lockish",
    "scope_nodes",
]


def expr_name(node: ast.AST) -> Optional[str]:
    """Dotted rendering of a ``Name``/``Attribute`` chain, else ``None``.

    >>> import ast
    >>> expr_name(ast.parse("self._lock", mode="eval").body)
    'self._lock'
    """
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = expr_name(node.value)
        return f"{base}.{node.attr}" if base else None
    return None


def is_lockish(name: Optional[str]) -> bool:
    """Heuristic: does this dotted name denote a mutual-exclusion object?

    Matches when the trailing component contains ``lock`` or ``mutex``
    (``self._lock``, ``_STATS_LOCK``, ``cache_mutex``) — the naming
    convention this repo (and most Python code) follows.  ``block`` is
    carved out first so ``block_size``/``blocking`` don't match.
    """
    if not name:
        return False
    leaf = name.rsplit(".", 1)[-1].lower()
    return "mutex" in leaf or "lock" in leaf.replace("block", "")


def _with_locks(stmt: ast.AST) -> Tuple[str, ...]:
    """Lock names acquired by a ``with``/``async with`` statement."""
    locks = []
    for item in getattr(stmt, "items", ()):
        name = expr_name(item.context_expr)
        if is_lockish(name):
            locks.append(name)
    return tuple(locks)


def _expr_lock_op(stmt: ast.stmt) -> Tuple[Tuple[str, ...], Tuple[str, ...]]:
    """``(acquires, releases)`` of an explicit acquire()/release() stmt."""
    if not isinstance(stmt, ast.Expr) or not isinstance(stmt.value, ast.Call):
        return (), ()
    func = stmt.value.func
    if not isinstance(func, ast.Attribute):
        return (), ()
    name = expr_name(func.value)
    if not is_lockish(name):
        return (), ()
    if func.attr == "acquire":
        return (name,), ()
    if func.attr == "release":
        return (), (name,)
    return (), ()


@dataclass
class CFGNode:
    """One CFG node: a statement, or a synthetic entry/exit marker.

    Attributes:
        index: position in ``CFG.nodes``.
        kind: ``entry``/``exit``/``stmt``/``with-enter``/``with-exit``/
            ``except-entry``.
        stmt: the underlying AST statement (``None`` for entry/exit).
        acquires: lock names this node acquires (``with`` enter,
            explicit ``.acquire()``).
        releases: lock names this node releases.
    """

    index: int
    kind: str
    stmt: Optional[ast.AST] = None
    acquires: Tuple[str, ...] = ()
    releases: Tuple[str, ...] = ()
    succs: List[int] = field(default_factory=list)
    preds: List[int] = field(default_factory=list)

    @property
    def lineno(self) -> int:
        """Source line of the underlying statement (0 for synthetic)."""
        return getattr(self.stmt, "lineno", 0)


@dataclass
class CFG:
    """Control-flow graph of one function body."""

    func: ast.AST
    nodes: List[CFGNode] = field(default_factory=list)
    entry: int = 0
    exit: int = 1

    def add_edge(self, src: int, dst: int) -> None:
        """Add ``src -> dst`` (idempotent)."""
        if dst not in self.nodes[src].succs:
            self.nodes[src].succs.append(dst)
            self.nodes[dst].preds.append(src)

    def stmt_nodes(self) -> Iterator[CFGNode]:
        """The non-synthetic nodes, in creation (≈ source) order."""
        for node in self.nodes:
            if node.stmt is not None:
                yield node


class _Builder:
    """Single-pass recursive CFG construction over a statement list."""

    def __init__(self, func: ast.AST):
        self.cfg = CFG(func=func)
        self.cfg.nodes.append(CFGNode(0, "entry"))
        self.cfg.nodes.append(CFGNode(1, "exit"))
        # (loop_head_index, break_sink_list) innermost-last.
        self._loops: List[Tuple[int, List[int]]] = []
        # Active handler-entry node groups of enclosing try statements.
        self._handlers: List[List[int]] = []

    def _new_node(
        self,
        kind: str,
        stmt: Optional[ast.AST],
        acquires: Tuple[str, ...] = (),
        releases: Tuple[str, ...] = (),
        reaches_handlers: bool = True,
    ) -> int:
        node = CFGNode(
            len(self.cfg.nodes),
            kind,
            stmt=stmt,
            acquires=acquires,
            releases=releases,
        )
        self.cfg.nodes.append(node)
        if reaches_handlers:
            # Any statement inside a try body may raise: edge to every
            # enclosing handler head (conservative).
            for group in self._handlers:
                for handler_entry in group:
                    self.cfg.add_edge(node.index, handler_entry)
        return node.index

    def _connect(self, frontier: Sequence[int], target: int) -> None:
        for src in frontier:
            self.cfg.add_edge(src, target)

    def build(self, body: Sequence[ast.stmt]) -> None:
        frontier = self._block(body, [self.cfg.entry])
        self._connect(frontier, self.cfg.exit)

    # ------------------------------------------------------------------
    def _block(
        self, stmts: Sequence[ast.stmt], frontier: List[int]
    ) -> List[int]:
        for stmt in stmts:
            frontier = self._statement(stmt, frontier)
        return frontier

    def _statement(self, stmt: ast.stmt, frontier: List[int]) -> List[int]:
        if isinstance(stmt, ast.If):
            cond = self._new_node("stmt", stmt)
            self._connect(frontier, cond)
            then_out = self._block(stmt.body, [cond])
            else_out = (
                self._block(stmt.orelse, [cond]) if stmt.orelse else [cond]
            )
            return then_out + [n for n in else_out if n not in then_out]

        if isinstance(stmt, (ast.While, ast.For, ast.AsyncFor)):
            head = self._new_node("stmt", stmt)
            self._connect(frontier, head)
            breaks: List[int] = []
            self._loops.append((head, breaks))
            body_out = self._block(stmt.body, [head])
            self._loops.pop()
            self._connect(body_out, head)  # loop back edge
            out = (
                self._block(stmt.orelse, [head]) if stmt.orelse else [head]
            )
            return out + [n for n in breaks if n not in out]

        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            locks = _with_locks(stmt)
            enter = self._new_node("with-enter", stmt, acquires=locks)
            self._connect(frontier, enter)
            body_out = self._block(stmt.body, [enter])
            leave = self._new_node("with-exit", stmt, releases=locks)
            self._connect(body_out, leave)
            return [leave]

        if isinstance(stmt, ast.Try) or type(stmt).__name__ == "TryStar":
            entries = [
                self._new_node("except-entry", h, reaches_handlers=False)
                for h in stmt.handlers
            ]
            self._handlers.append(entries)
            body_out = self._block(stmt.body, frontier)
            self._handlers.pop()
            if stmt.orelse:
                body_out = self._block(stmt.orelse, body_out)
            handler_outs: List[int] = []
            for h, entry in zip(stmt.handlers, entries):
                handler_outs.extend(self._block(h.body, [entry]))
            outs = body_out + handler_outs
            if stmt.finalbody:
                return self._block(stmt.finalbody, outs)
            return outs

        if isinstance(stmt, (ast.Return, ast.Raise)):
            node = self._new_node("stmt", stmt)
            self._connect(frontier, node)
            if isinstance(stmt, ast.Raise) and self._handlers:
                pass  # edge to handlers already added by _new_node
            else:
                self.cfg.add_edge(node, self.cfg.exit)
            return []

        if isinstance(stmt, ast.Break):
            node = self._new_node("stmt", stmt)
            self._connect(frontier, node)
            if self._loops:
                self._loops[-1][1].append(node)
            return []

        if isinstance(stmt, ast.Continue):
            node = self._new_node("stmt", stmt)
            self._connect(frontier, node)
            if self._loops:
                self.cfg.add_edge(node, self._loops[-1][0])
            return []

        # Simple statement (incl. nested def/class, which are opaque
        # here — each function gets its own CFG).
        acquires, releases = _expr_lock_op(stmt)
        node = self._new_node(
            "stmt", stmt, acquires=acquires, releases=releases
        )
        self._connect(frontier, node)
        return [node]


def build_cfg(func: ast.AST) -> CFG:
    """Build the statement-level CFG of one function definition.

    ``func`` is an ``ast.FunctionDef``/``AsyncFunctionDef`` (or a
    ``Lambda``, whose single expression becomes one node).
    """
    builder = _Builder(func)
    if isinstance(func, ast.Lambda):
        node = builder._new_node("stmt", func.body)
        builder.cfg.add_edge(builder.cfg.entry, node)
        builder.cfg.add_edge(node, builder.cfg.exit)
    else:
        builder.build(func.body)
    return builder.cfg


def scope_nodes(root: ast.AST) -> Iterator[ast.AST]:
    """``ast.walk`` restricted to ``root``'s own scope.

    Descends expressions and control flow but stops at nested
    ``def``/``async def``/``lambda``/``class`` boundaries, so a
    blocking call inside an executor-offloaded closure is *not*
    attributed to the enclosing function.
    """
    stack: List[ast.AST] = [root]
    while stack:
        node = stack.pop()
        yield node
        for child in ast.iter_child_nodes(node):
            if isinstance(
                child,
                (
                    ast.FunctionDef,
                    ast.AsyncFunctionDef,
                    ast.Lambda,
                    ast.ClassDef,
                ),
            ):
                continue
            stack.append(child)
