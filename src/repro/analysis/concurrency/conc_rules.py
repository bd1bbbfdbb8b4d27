"""The CONC rule family: concurrency hazards over the compile service.

Each check consumes the :class:`~repro.analysis.concurrency.summaries.
ProjectIndex` (CFGs, locks-held facts, call-graph blocking summaries)
and yields raw findings ``(rule_id, severity, path, lineno, message,
fixit)``; the engine (:mod:`repro.analysis.concurrency.engine`) applies
``# lint: disable=`` suppression and stamps them into
:class:`~repro.analysis.diagnostics.Diagnostic` objects.

The catalog (severities are fixed per rule; CONC002 splits by access
kind):

========  ========  ====================================================
CONC001   error     blocking call reachable inside ``async def``
CONC002   error     unguarded write to a lock-guarded shared attribute
          warning   unguarded *read* of a lock-guarded shared attribute
CONC003   error     lock-acquisition-order cycle (deadlock potential)
CONC004   error     coroutine / Task created but never awaited or stored
CONC005   warning   non-async-signal-safe work in a ``signal.signal``
                    handler
CONC006   warning   ``fork``-start-method hazard after threads may exist
========  ========  ====================================================
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

from ..rules import Rule
from .cfg import (
    CFG,
    CFGNode,
    expr_name,
    is_lockish,
    scope_nodes,
    _with_locks,
)
from .dataflow import forward_dataflow
from .summaries import FunctionInfo, ModuleIndex, ProjectIndex

__all__ = ["CONC_RULES", "RawFinding", "run_concurrency_rules"]

#: ``(rule_id, severity, path, lineno, message, fixit_hint)``.
RawFinding = Tuple[str, str, str, int, str, str]

#: The concurrency rule catalog (metadata only — the checks below are
#: driven off the shared project index, not per-rule contexts).
CONC_RULES: Tuple[Rule, ...] = (
    Rule(
        "CONC001",
        "error",
        "blocking call inside async def",
        paper_ref="event-loop latency",
    ),
    Rule(
        "CONC002",
        "error",
        "shared attribute access without its lock",
        paper_ref="torn reads/lost updates",
    ),
    Rule(
        "CONC003",
        "error",
        "lock-acquisition-order cycle",
        paper_ref="deadlock",
    ),
    Rule("CONC004", "error", "unawaited coroutine / dropped Task"),
    Rule(
        "CONC005",
        "warning",
        "non-async-signal-safe signal handler",
    ),
    Rule(
        "CONC006",
        "warning",
        "fork start method after threads may exist",
    ),
)

_CTOR_EXEMPT = {"__init__", "__post_init__", "__new__", "__del__"}

_TASK_FACTORIES = {"asyncio.create_task", "asyncio.ensure_future"}


def _own_expr_nodes(root: ast.AST) -> Iterator[ast.AST]:
    """AST nodes of one statement, excluding child statements/scopes.

    A CFG node owns its statement's *expressions* only — the bodies of
    an ``if``/``for``/``with`` are separate CFG nodes, and nested
    ``def``/``lambda`` bodies are separate scopes.
    """
    stack = [root]
    while stack:
        node = stack.pop()
        yield node
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.stmt) or isinstance(
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


def _self_attr_base(target: ast.AST) -> Optional[str]:
    """The ``self`` attribute a write target mutates, if any.

    ``self.X = ...`` → ``X``; ``self.X.Y = ...`` → ``X``;
    ``self.X[k] = ...`` → ``X``.
    """
    if isinstance(target, ast.Subscript):
        return _self_attr_base(target.value)
    if isinstance(target, ast.Attribute):
        value = target.value
        if isinstance(value, ast.Name) and value.id == "self":
            return target.attr
        return _self_attr_base(value)
    return None


def _node_writes(node: CFGNode) -> Set[str]:
    """Self-attributes written by this CFG node's statement."""
    stmt = node.stmt
    targets: List[ast.AST] = []
    if isinstance(stmt, ast.Assign):
        targets = list(stmt.targets)
    elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
        targets = [stmt.target]
    elif isinstance(stmt, ast.For):
        targets = [stmt.target]
    out: Set[str] = set()
    for target in targets:
        for t in ast.walk(target) if isinstance(
            target, (ast.Tuple, ast.List)
        ) else [target]:
            base = _self_attr_base(t)
            if base:
                out.add(base)
    return out


def _node_reads(node: CFGNode) -> Set[str]:
    """Self-attributes read in this CFG node's own expressions."""
    out: Set[str] = set()
    for n in _own_expr_nodes(node.stmt):
        if (
            isinstance(n, ast.Attribute)
            and isinstance(n.value, ast.Name)
            and n.value.id == "self"
        ):
            out.add(n.attr)
    return out


def _fmt(fn: FunctionInfo) -> str:
    return f"{fn.module.dotted}.{fn.qualname}"


def _module_external(
    module: ModuleIndex, func_expr: ast.AST
) -> Optional[str]:
    """Resolve a call target to its dotted external name via imports."""
    chain = expr_name(func_expr)
    if not chain:
        return None
    parts = chain.split(".")
    if parts[0] in module.import_aliases:
        return ".".join([module.import_aliases[parts[0]]] + parts[1:])
    if parts[0] in module.from_imports:
        return ".".join([module.from_imports[parts[0]]] + parts[1:])
    return None


# ----------------------------------------------------------------------
# CONC001 — blocking call inside async def
# ----------------------------------------------------------------------
def _check_conc001(project: ProjectIndex) -> Iterator[RawFinding]:
    for fn in project.all_functions():
        if not fn.is_async:
            continue
        path = fn.module.path
        awaited = project.awaited_calls(fn)
        bindings = project._local_bindings(fn)
        for node in scope_nodes(fn.node):
            if isinstance(node, (ast.With,)) and not isinstance(
                node, ast.AsyncWith
            ):
                locks = _with_locks(node)
                if locks:
                    yield (
                        "CONC001",
                        "warning",
                        path,
                        node.lineno,
                        f"async '{fn.qualname}' takes thread lock "
                        f"'{locks[0]}' with a sync 'with' — the event "
                        "loop stalls while the lock is contended",
                        "keep the critical section tiny, or move the "
                        "locked work into an executor",
                    )
                continue
            if not isinstance(node, ast.Call):
                continue
            if id(node) in awaited:
                continue
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr == "acquire"
                and is_lockish(expr_name(func.value))
            ):
                yield (
                    "CONC001",
                    "error",
                    path,
                    node.lineno,
                    f"async '{fn.qualname}' calls "
                    f"{expr_name(func.value)}.acquire() — a blocked "
                    "acquire freezes the whole event loop",
                    "use asyncio.Lock, or offload the locked section "
                    "with loop.run_in_executor",
                )
                continue
            reason = project.direct_blocking_reason(node, fn, bindings)
            if reason is not None:
                yield (
                    "CONC001",
                    "error",
                    path,
                    node.lineno,
                    f"async '{fn.qualname}' makes a blocking call: "
                    f"{reason}",
                    "await loop.run_in_executor(None, ...) or use an "
                    "async equivalent",
                )
                continue
            targets, _, _ = project.classify_call(node, fn, bindings)
            for target in targets:
                if target.is_async:
                    continue
                chain = project.blocking.get(target.key)
                if chain is not None:
                    yield (
                        "CONC001",
                        "error",
                        path,
                        node.lineno,
                        f"async '{fn.qualname}' calls blocking "
                        f"'{_fmt(target)}' ({chain})",
                        "await loop.run_in_executor(None, ...) or use "
                        "an async equivalent",
                    )
                    break


# ----------------------------------------------------------------------
# CONC002 — shared attribute access without the class lock
# ----------------------------------------------------------------------
def _class_methods(
    project: ProjectIndex, module: ModuleIndex, cls
) -> List[FunctionInfo]:
    return [
        module.functions[qual]
        for name, qual in sorted(cls.methods.items())
        if name not in _CTOR_EXEMPT
    ]


def _check_conc002(project: ProjectIndex) -> Iterator[RawFinding]:
    for module in project.modules.values():
        for _, cls in sorted(module.classes.items()):
            if not cls.lock_attrs:
                continue
            lock_names = frozenset(f"self.{a}" for a in cls.lock_attrs)
            methods = _class_methods(project, module, cls)
            guarded: Set[str] = set()
            for fn in methods:
                cfg = project.cfg_of(fn)
                held = project.locks_of(fn)
                for node in cfg.stmt_nodes():
                    if node.kind == "with-exit":
                        continue
                    if held.get(node.index, frozenset()) & lock_names:
                        guarded |= _node_writes(node)
            guarded -= cls.lock_attrs
            if not guarded:
                continue
            for fn in methods:
                cfg = project.cfg_of(fn)
                held = project.locks_of(fn)
                for node in cfg.stmt_nodes():
                    if node.kind == "with-exit":
                        continue
                    if held.get(node.index, frozenset()) & lock_names:
                        continue
                    writes = _node_writes(node) & guarded
                    reads = (_node_reads(node) & guarded) - writes
                    for attr in sorted(writes):
                        yield (
                            "CONC002",
                            "error",
                            module.path,
                            node.lineno,
                            f"'{cls.name}.{fn.name}' writes shared "
                            f"attribute 'self.{attr}' without holding "
                            f"the class lock that guards it elsewhere",
                            f"wrap the access in 'with self."
                            f"{sorted(cls.lock_attrs)[0]}:'",
                        )
                    for attr in sorted(reads):
                        yield (
                            "CONC002",
                            "warning",
                            module.path,
                            node.lineno,
                            f"'{cls.name}.{fn.name}' reads shared "
                            f"attribute 'self.{attr}' without the lock "
                            "that guards its writers (torn-read risk)",
                            f"snapshot under 'with self."
                            f"{sorted(cls.lock_attrs)[0]}:'",
                        )


# ----------------------------------------------------------------------
# CONC003 — lock-acquisition-order cycles
# ----------------------------------------------------------------------
def _normalize_lock(name: str, fn: FunctionInfo) -> str:
    if name.startswith("self.") and fn.class_name:
        return f"{fn.class_name}{name[4:]}"
    if "." not in name:
        return f"{fn.module.dotted}:{name}"
    return name


def _check_conc003(project: ProjectIndex) -> Iterator[RawFinding]:
    #: (held, acquired) → first (path, lineno) exhibiting the edge.
    edges: Dict[Tuple[str, str], Tuple[str, int]] = {}
    for fn in project.all_functions():
        cfg = project.cfg_of(fn)
        held_map = project.locks_of(fn)
        for node in cfg.nodes:
            if not node.acquires:
                continue
            held = held_map.get(node.index)
            if not held:
                continue
            for acquired in node.acquires:
                acq = _normalize_lock(acquired, fn)
                for h in held:
                    hn = _normalize_lock(h, fn)
                    if hn == acq:
                        continue
                    edges.setdefault(
                        (hn, acq), (fn.module.path, node.lineno)
                    )
    # Cycle detection over the lock-order graph (tiny: DFS per node).
    adjacency: Dict[str, List[str]] = {}
    for (src, dst) in edges:
        adjacency.setdefault(src, []).append(dst)
    for targets in adjacency.values():
        targets.sort()
    reported: Set[FrozenSet[str]] = set()
    for start in sorted(adjacency):
        stack = [(start, [start])]
        while stack:
            current, trail = stack.pop()
            for nxt in adjacency.get(current, ()):  # sorted
                if nxt == start:
                    cycle = frozenset(trail)
                    if cycle in reported:
                        continue
                    reported.add(cycle)
                    path, lineno = edges[(current, start)]
                    order = " → ".join(trail + [start])
                    yield (
                        "CONC003",
                        "error",
                        path,
                        lineno,
                        f"lock-acquisition-order cycle: {order} — two "
                        "threads taking these locks in opposite order "
                        "deadlock",
                        "impose a global lock ordering (always acquire "
                        f"'{min(cycle)}' first)",
                    )
                elif nxt not in trail:
                    stack.append((nxt, trail + [nxt]))


# ----------------------------------------------------------------------
# CONC004 — unawaited coroutine / dropped Task
# ----------------------------------------------------------------------
def _is_coroutine_call(
    project: ProjectIndex,
    call: ast.Call,
    fn: FunctionInfo,
    bindings: Dict[str, str],
) -> bool:
    targets, external, leaf = project.classify_call(call, fn, bindings)
    if any(t.is_async for t in targets):
        return True
    if external in _TASK_FACTORIES:
        return True
    return leaf in ("create_task", "ensure_future")


def _check_conc004(project: ProjectIndex) -> Iterator[RawFinding]:
    for fn in project.all_functions():
        path = fn.module.path
        bindings = project._local_bindings(fn)
        cfg = project.cfg_of(fn)
        gens: Dict[int, FrozenSet[Tuple[str, int]]] = {}
        for node in cfg.stmt_nodes():
            stmt = node.stmt
            if (
                isinstance(stmt, ast.Expr)
                and isinstance(stmt.value, ast.Call)
                and _is_coroutine_call(project, stmt.value, fn, bindings)
            ):
                name = expr_name(stmt.value.func) or "<coroutine>"
                yield (
                    "CONC004",
                    "error",
                    path,
                    stmt.lineno,
                    f"'{fn.qualname}' creates a coroutine/Task via "
                    f"'{name}(...)' and immediately drops it — it "
                    "never runs (or dies unobserved)",
                    "await it, or keep a reference and await/cancel "
                    "it later",
                )
            elif (
                isinstance(stmt, ast.Assign)
                and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)
                and isinstance(stmt.value, ast.Call)
                and _is_coroutine_call(project, stmt.value, fn, bindings)
            ):
                gens[node.index] = frozenset(
                    [(stmt.targets[0].id, stmt.lineno)]
                )
        if not gens:
            continue

        def transfer(
            node: CFGNode, fact: FrozenSet[Tuple[str, int]]
        ) -> FrozenSet[Tuple[str, int]]:
            if fact and node.stmt is not None:
                mentioned = {
                    n.id
                    for n in _own_expr_nodes(node.stmt)
                    if isinstance(n, ast.Name)
                }
                if mentioned:
                    fact = frozenset(
                        f for f in fact if f[0] not in mentioned
                    )
            return fact | gens.get(node.index, frozenset())

        def join(
            a: FrozenSet[Tuple[str, int]], b: FrozenSet[Tuple[str, int]]
        ) -> FrozenSet[Tuple[str, int]]:
            return a | b  # may: pending on any path

        in_facts, _ = forward_dataflow(cfg, frozenset(), transfer, join)
        for var, lineno in sorted(
            in_facts.get(cfg.exit, frozenset()), key=lambda f: f[1]
        ):
            yield (
                "CONC004",
                "error",
                path,
                lineno,
                f"coroutine/Task assigned to '{var}' in "
                f"'{fn.qualname}' can reach the function exit without "
                "being awaited, stored, or cancelled",
                "await it (or gather/store it) on every path",
            )


# ----------------------------------------------------------------------
# CONC005 — non-async-signal-safe signal handlers
# ----------------------------------------------------------------------
def _resolve_handler(
    module: ModuleIndex, handler: ast.AST
) -> Optional[ast.AST]:
    """The function body registered as a signal handler, if findable."""
    if isinstance(handler, ast.Lambda):
        return handler
    if isinstance(handler, ast.Name):
        qual = module.module_funcs.get(handler.id)
        if qual:
            return module.functions[qual].node
        for qual in sorted(module.functions):
            if module.functions[qual].name == handler.id:
                return module.functions[qual].node
        return None
    if isinstance(handler, ast.Attribute):
        for qual in sorted(module.functions):
            if module.functions[qual].name == handler.attr:
                return module.functions[qual].node
    return None


def _handler_hazard(
    project: ProjectIndex, module: ModuleIndex, body: ast.AST
) -> Optional[str]:
    """The first async-signal-unsafe thing this handler does, if any."""
    fn = _owning_function(module, body)
    for node in scope_nodes(body):
        if isinstance(node, (ast.With, ast.AsyncWith)):
            locks = _with_locks(node)
            if locks:
                return (
                    f"takes lock '{locks[0]}' (a handler interrupting "
                    "the lock holder deadlocks)"
                )
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr == "acquire":
            if is_lockish(expr_name(func.value)):
                return (
                    f"acquires '{expr_name(func.value)}' (a handler "
                    "interrupting the lock holder deadlocks)"
                )
        if fn is not None:
            reason = project.direct_blocking_reason(node, fn)
            if reason is not None:
                return f"does blocking work ({reason})"
            targets, _, _ = project.classify_call(node, fn)
            for target in targets:
                chain = project.blocking.get(target.key)
                if chain is not None:
                    return (
                        f"calls blocking '{_fmt(target)}' ({chain})"
                    )
    return None


def _owning_function(
    module: ModuleIndex, body: ast.AST
) -> Optional[FunctionInfo]:
    for info in module.functions.values():
        if info.node is body:
            return info
    # Lambda handlers: borrow any module-level function's context for
    # import resolution (classify_call only reads module tables then).
    for qual in sorted(module.functions):
        return module.functions[qual]
    return None


def _check_conc005(project: ProjectIndex) -> Iterator[RawFinding]:
    for module in project.modules.values():
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            if _module_external(module, node.func) != "signal.signal":
                continue
            if len(node.args) < 2:
                continue
            handler = node.args[1]
            body = _resolve_handler(module, handler)
            if body is None:
                continue
            hazard = _handler_hazard(project, module, body)
            if hazard is None:
                continue
            name = expr_name(handler) or "<lambda>"
            yield (
                "CONC005",
                "warning",
                module.path,
                node.lineno,
                f"signal handler '{name}' {hazard}; handlers may run "
                "at any bytecode boundary and must stay "
                "async-signal-safe",
                "set a flag / raise, and do the real work on the main "
                "control path (or use loop.add_signal_handler)",
            )


# ----------------------------------------------------------------------
# CONC006 — fork-after-threads hazards
# ----------------------------------------------------------------------
def _const_str(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def _check_conc006(project: ProjectIndex) -> Iterator[RawFinding]:
    fixit = (
        "use the 'spawn' (or 'forkserver') start method when threads "
        "may already be running"
    )
    for module in project.modules.values():
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            external = _module_external(module, node.func)
            if external is None:
                continue
            if external in (
                "multiprocessing.get_context",
                "multiprocessing.set_start_method",
            ):
                method = _const_str(node.args[0]) if node.args else None
                if method == "fork":
                    yield (
                        "CONC006",
                        "warning",
                        module.path,
                        node.lineno,
                        "explicit 'fork' start method: forking a "
                        "process with live threads copies held locks "
                        "into the child, which can deadlock instantly",
                        fixit,
                    )
            elif external.endswith(".ProcessPoolExecutor"):
                kwargs = {k.arg for k in node.keywords}
                if "mp_context" not in kwargs:
                    yield (
                        "CONC006",
                        "warning",
                        module.path,
                        node.lineno,
                        "ProcessPoolExecutor without mp_context "
                        "defaults to 'fork' on Linux — unsafe once any "
                        "thread (service executor, watchdog) is "
                        "running",
                        fixit,
                    )
            elif external in (
                "multiprocessing.Pool",
                "multiprocessing.Process",
            ):
                yield (
                    "CONC006",
                    "warning",
                    module.path,
                    node.lineno,
                    f"bare {external}() inherits the default 'fork' "
                    "start method on Linux — unsafe once threads are "
                    "running",
                    fixit,
                )


def run_concurrency_rules(project: ProjectIndex) -> List[RawFinding]:
    """Run every CONC check; findings sorted by (path, line, rule)."""
    findings: List[RawFinding] = []
    for check in (
        _check_conc001,
        _check_conc002,
        _check_conc003,
        _check_conc004,
        _check_conc005,
        _check_conc006,
    ):
        findings.extend(check(project))
    findings.sort(key=lambda f: (f[2], f[3], f[0], f[4]))
    return findings
