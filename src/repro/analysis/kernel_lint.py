"""AST-based codebase linter for the compiled-kernel invariants (``KRN``).

The compiled CSR kernels (PR 3) rest on three repo-wide invariants that
plain tests cannot guard statically:

* **Determinism of iteration** — the hot paths under ``graphs/``,
  ``partition/``, ``retiming/`` and ``flow/`` must never let an
  unordered ``set`` feed an ordered construct (a ``for`` loop, a list,
  an ``enumerate``); compiled/reference bit-identity depends on it
  (``KRN001``).
* **Determinism of randomness** — every RNG must be an explicitly
  seeded ``random.Random(seed)``; the module-level ``random.*``
  functions and unseeded ``Random()`` instances are banned outside
  ``flow/rng.py`` (``KRN002``).
* **The compiled/reference pairing contract** — a kernel module with a
  ``use_compiled`` switch must keep a reachable ``*_reference`` twin
  (``KRN003``), and every ``*_reference`` definition must be exercised
  somewhere under ``tests/`` (``KRN004``).

Findings use the shared :class:`~repro.analysis.diagnostics.Diagnostic`
model with ``path:line`` locations.  Inline suppression: put
``# lint: disable=KRN001`` (comma-separated ids, or ``all``) on the
flagged line.  The command line is ``merced lint-code``, which runs these
rules beside the concurrency rules over one parse per file.
"""

from __future__ import annotations

import ast
import os
from typing import Iterable, List, Optional, Sequence, Set, Tuple

from .diagnostics import Diagnostic
from .rules import Rule

__all__ = [
    "KERNEL_RULES",
    "HOT_DIRS",
    "lint_tree",
    "cross_check_references",
]

#: Directories whose modules are deterministic hot paths (KRN001/KRN003).
HOT_DIRS = ("graphs", "partition", "retiming", "flow")

#: The kernel-linter rule catalog (metadata only; one AST walk drives
#: all checks).
KERNEL_RULES: Tuple[Rule, ...] = (
    Rule(
        "KRN001",
        "error",
        "unordered set iteration in a hot path",
        paper_ref="compiled/reference bit-identity",
    ),
    Rule("KRN002", "error", "unseeded random usage"),
    Rule(
        "KRN003",
        "error",
        "use_compiled without a *_reference twin",
        paper_ref="compiled/reference pairing contract",
    ),
    Rule(
        "KRN004",
        "error",
        "*_reference twin not exercised by tests",
        paper_ref="compiled/reference pairing contract",
    ),
)

_SET_CONSTRUCTORS = {"set", "frozenset"}
_SET_METHODS = {
    "union",
    "intersection",
    "difference",
    "symmetric_difference",
}
_RANDOM_FUNCS = {
    "random",
    "randint",
    "randrange",
    "choice",
    "choices",
    "shuffle",
    "sample",
    "uniform",
    "betavariate",
    "gauss",
    "getrandbits",
    "seed",
}
_ORDERED_CONSUMERS = {"list", "tuple", "enumerate"}
#: numpy's module-level (global-RNG) sampling functions — the numpy
#: twin of :data:`_RANDOM_FUNCS` (KRN002 extension).
_NP_RANDOM_FUNCS = {
    "rand",
    "randn",
    "randint",
    "random",
    "random_sample",
    "shuffle",
    "permutation",
    "choice",
    "seed",
    "uniform",
    "normal",
}
#: numpy RNG constructors that are nondeterministic when called with
#: no seed argument.
_NP_RNG_CTORS = {"default_rng", "RandomState"}


def _is_set_expr(node: ast.AST) -> bool:
    """Syntactic check: does this expression evaluate to a set?"""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name) and func.id in _SET_CONSTRUCTORS:
            return True
        if (
            isinstance(func, ast.Attribute)
            and func.attr in _SET_METHODS
            and _is_set_expr(func.value)
        ):
            return True
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)
    ):
        return _is_set_expr(node.left) or _is_set_expr(node.right)
    return False


def _is_hot_path(path: str) -> bool:
    parts = os.path.normpath(path).split(os.sep)
    return any(p in HOT_DIRS for p in parts)


def _suppressed(lines: Sequence[str], lineno: int, rule_id: str) -> bool:
    """True when the flagged source line opts out of ``rule_id``."""
    if not 1 <= lineno <= len(lines):
        return False
    line = lines[lineno - 1]
    marker = "lint: disable="
    idx = line.find(marker)
    if idx < 0:
        return False
    ids = {
        token.strip().upper()
        for token in line[idx + len(marker) :].split(",")
    }
    return "ALL" in ids or rule_id.upper() in ids


class _KernelVisitor(ast.NodeVisitor):
    """One walk collecting KRN001/KRN002 hits and pairing-contract facts."""

    def __init__(self, hot: bool, check_random: bool):
        self.hot = hot
        self.check_random = check_random
        self.hits: List[Tuple[str, int, str, str]] = []
        self.uses_use_compiled_at: Optional[int] = None
        self.reference_defs: List[Tuple[str, int]] = []
        self.reference_mentions: Set[str] = set()
        # KRN002 numpy extension: local names bound to the numpy package
        # / the numpy.random module / its unseeded RNG constructors.
        self._np_aliases: Set[str] = set()
        self._npr_aliases: Set[str] = set()
        self._np_ctor_names: Set[str] = set()

    # -- KRN001 -------------------------------------------------------
    def _flag_set_iter(self, node: ast.AST, context: str) -> None:
        self.hits.append(
            (
                "KRN001",
                node.lineno,
                f"iterating a set {context} makes the result order "
                "depend on hash seeds",
                "sort first (sorted(...)) or iterate an ordered source",
            )
        )

    def visit_For(self, node: ast.For) -> None:
        if self.hot and _is_set_expr(node.iter):
            self._flag_set_iter(node.iter, "in a for loop")
        self.generic_visit(node)

    def _visit_comp(self, node) -> None:
        if self.hot:
            for gen in node.generators:
                if _is_set_expr(gen.iter):
                    self._flag_set_iter(gen.iter, "in a comprehension")
        self.generic_visit(node)

    visit_ListComp = _visit_comp
    visit_GeneratorExp = _visit_comp

    # -- KRN001 (ordered consumers) + KRN002 --------------------------
    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if self.hot and node.args and _is_set_expr(node.args[0]):
            if isinstance(func, ast.Name) and func.id in _ORDERED_CONSUMERS:
                self._flag_set_iter(node, f"through {func.id}(...)")
            elif isinstance(func, ast.Attribute) and func.attr in (
                "join",
                "extend",
            ):
                self._flag_set_iter(node, f"through .{func.attr}(...)")
        if self.check_random:
            self._np_random_call(node)
        if self.check_random and isinstance(func, ast.Attribute):
            value = func.value
            if (
                isinstance(value, ast.Name)
                and value.id == "random"
                and value.id not in self._npr_aliases
            ):
                if func.attr in _RANDOM_FUNCS:
                    self.hits.append(
                        (
                            "KRN002",
                            node.lineno,
                            f"module-level random.{func.attr}() uses the "
                            "shared global RNG (unseeded, process-wide)",
                            "use a seeded random.Random(seed) instance",
                        )
                    )
                elif func.attr == "Random" and not (
                    node.args or node.keywords
                ):
                    self.hits.append(
                        (
                            "KRN002",
                            node.lineno,
                            "random.Random() without a seed is "
                            "nondeterministic",
                            "pass an explicit seed",
                        )
                    )
        self.generic_visit(node)

    def _flag_np_random(self, lineno: int, what: str) -> None:
        self.hits.append(
            (
                "KRN002",
                lineno,
                f"{what} uses numpy's shared global RNG "
                "(unseeded, process-wide)",
                "use numpy.random.default_rng(seed) (see flow/rng.py)",
            )
        )

    def _np_random_call(self, node: ast.Call) -> None:
        """KRN002 numpy extension: global-RNG and unseeded-ctor calls."""
        func = node.func
        leaf: Optional[str] = None
        if isinstance(func, ast.Attribute):
            parts = []
            cur: ast.AST = func
            while isinstance(cur, ast.Attribute):
                parts.append(cur.attr)
                cur = cur.value
            if not isinstance(cur, ast.Name):
                return
            parts.append(cur.id)
            parts.reverse()
            if (
                len(parts) == 3
                and parts[0] in self._np_aliases
                and parts[1] == "random"
            ):
                leaf = parts[2]
            elif len(parts) == 2 and parts[0] in self._npr_aliases:
                leaf = parts[1]
        elif isinstance(func, ast.Name) and func.id in self._np_ctor_names:
            leaf = func.id
        if leaf is None:
            return
        if leaf in _NP_RANDOM_FUNCS:
            self._flag_np_random(
                node.lineno, f"module-level numpy.random.{leaf}()"
            )
        elif leaf in _NP_RNG_CTORS and not (node.args or node.keywords):
            self._flag_np_random(
                node.lineno, f"numpy.random.{leaf}() without a seed"
            )

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            if alias.name == "numpy":
                self._np_aliases.add(alias.asname or "numpy")
            elif alias.name.startswith("numpy.") and not alias.asname:
                self._np_aliases.add("numpy")
            elif alias.name == "numpy.random" and alias.asname:
                self._npr_aliases.add(alias.asname)
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if self.check_random and node.module == "numpy":
            for alias in node.names:
                if alias.name == "random":
                    self._npr_aliases.add(alias.asname or "random")
        if self.check_random and node.module == "numpy.random":
            for alias in node.names:
                if alias.name in _NP_RANDOM_FUNCS or alias.name == "*":
                    self._flag_np_random(
                        node.lineno,
                        f"'from numpy.random import {alias.name}'",
                    )
                elif alias.name in _NP_RNG_CTORS:
                    self._np_ctor_names.add(alias.asname or alias.name)
        if self.check_random and node.module == "random":
            for alias in node.names:
                if alias.name in _RANDOM_FUNCS or alias.name == "*":
                    self.hits.append(
                        (
                            "KRN002",
                            node.lineno,
                            f"'from random import {alias.name}' pulls in "
                            "the shared global RNG",
                            "use a seeded random.Random(seed) instance",
                        )
                    )
        self.generic_visit(node)

    # -- KRN003/KRN004 facts ------------------------------------------
    def visit_Name(self, node: ast.Name) -> None:
        if node.id == "use_compiled" and self.uses_use_compiled_at is None:
            self.uses_use_compiled_at = node.lineno
        if node.id.endswith("_reference"):
            self.reference_mentions.add(node.id)
        self.generic_visit(node)

    def visit_arg(self, node: ast.arg) -> None:
        if node.arg == "use_compiled" and self.uses_use_compiled_at is None:
            self.uses_use_compiled_at = node.lineno

    def _visit_def(self, node) -> None:
        if node.name.endswith("_reference"):
            self.reference_defs.append((node.name, node.lineno))
            self.reference_mentions.add(node.name)
        self.generic_visit(node)

    visit_FunctionDef = _visit_def
    visit_AsyncFunctionDef = _visit_def

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            if isinstance(target, ast.Name) and target.id.endswith(
                "_reference"
            ):
                self.reference_defs.append((target.id, target.lineno))
                self.reference_mentions.add(target.id)
        self.generic_visit(node)


def lint_tree(
    tree: ast.Module, code: str, path: str
) -> Tuple[List[Diagnostic], List[Tuple[str, int]]]:
    """Lint one already-parsed module; returns (diagnostics, ref defs).

    ``path`` decides rule applicability: KRN001/KRN003 apply only under
    the :data:`HOT_DIRS`, KRN002 everywhere except ``flow/rng.py``.
    The returned reference definitions feed the cross-file ``KRN004``
    check in :func:`cross_check_references`.
    """
    lines = code.splitlines()
    hot = _is_hot_path(path)
    is_rng_home = os.path.normpath(path).endswith(
        os.path.join("flow", "rng.py")
    )
    visitor = _KernelVisitor(hot=hot, check_random=not is_rng_home)
    visitor.visit(tree)

    hits = list(visitor.hits)
    if (
        hot
        and visitor.uses_use_compiled_at is not None
        and not visitor.reference_mentions
    ):
        hits.append(
            (
                "KRN003",
                visitor.uses_use_compiled_at,
                "module switches on use_compiled but references no "
                "*_reference twin",
                "keep the reference kernel alongside the compiled one",
            )
        )

    diags = [
        Diagnostic(
            rule_id=rule_id,
            severity="error",
            location=f"{path}:{lineno}",
            message=message,
            fixit_hint=fixit,
        )
        for rule_id, lineno, message, fixit in hits
        if not _suppressed(lines, lineno, rule_id)
    ]
    ref_defs = [
        (name, lineno)
        for name, lineno in visitor.reference_defs
        if not _suppressed(lines, lineno, "KRN004")
    ]
    return diags, ref_defs


def _iter_py_files(paths: Iterable[str]) -> List[str]:
    files: List[str] = []
    for path in paths:
        if os.path.isdir(path):
            for root, dirs, names in os.walk(path):
                dirs.sort()
                for name in sorted(names):
                    if name.endswith(".py"):
                        files.append(os.path.join(root, name))
        elif path.endswith(".py"):
            files.append(path)
    return files


def cross_check_references(
    all_refs: Sequence[Tuple[str, str, int]],
    tests_dir: Optional[str],
) -> List[Diagnostic]:
    """The cross-file KRN004 pass: every ``*_reference`` definition
    found in the scanned sources must be mentioned somewhere under
    ``tests_dir`` — the static half of the "exercised by an equivalence
    test" contract.  ``all_refs`` holds ``(name, path, lineno)``.
    """
    diags: List[Diagnostic] = []
    if not (tests_dir and os.path.isdir(tests_dir) and all_refs):
        return diags
    corpus = []
    for path in _iter_py_files([tests_dir]):
        with open(path) as fh:
            corpus.append(fh.read())
    tests_text = "\n".join(corpus)
    for name, path, lineno in all_refs:
        if name not in tests_text:
            diags.append(
                Diagnostic(
                    rule_id="KRN004",
                    severity="error",
                    location=f"{path}:{lineno}",
                    message=f"reference twin {name} is never "
                    f"exercised under {tests_dir}",
                    fixit_hint="add an equivalence test against the "
                    "compiled path",
                )
            )
    return diags
