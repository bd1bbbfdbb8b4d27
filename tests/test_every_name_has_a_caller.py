"""Every definition under ``src/repro`` has a caller outside the tests.

A top-level function or class, a method or a property whose name no code
in ``src/``, ``scripts/``, ``benchmarks/``, ``bench/`` or ``examples/``
loads (as a ``Name`` or an ``Attribute`` node outside the definition's
own body) is kept alive only by its own tests.  The check is by name, so
a dead method that shares its name with a live one passes: it errs
towards keeping code.

Exempt: dunders, ``ast.NodeVisitor`` ``visit_*`` methods (the visitor
dispatches on them by name), checks registered with ``@rule`` (the rule
registry runs them), and the names in :data:`KEPT`, each with the reason
it stays although only tests reach it.  :data:`KEPT` also records the
dataclass fields that only tests read; this check does not look at
fields, but every name in :data:`KEPT` must still be defined.
"""

import ast
import functools
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
CALLER_TREES = ("src", "scripts", "benchmarks", "bench", "examples")

#: Definitions that stay although no code outside ``tests/`` reaches them.
KEPT = {
    # oracles: each checks a production kernel, or what Merced emits
    "dijkstra_tree": "oracle: the plain heap Dijkstra that FlowIndex's "
    "shortest-path trees are checked against (tests/flow, tests/graphs)",
    "inject_flow": "oracle: Eq. 1/2 flow injection on plain dicts, the "
    "scalar twin of the saturation kernel's update (tests/flow)",
    "bellman_ford_constraints": "oracle: the difference-constraint solver "
    "the retiming tests recheck legality and lags with",
    "check_pic": "oracle: recounts Eqs. 5 and 6 on a partition from scratch "
    "(tests/partition, tests/core)",
    "PICViolation": "oracle: the record check_pic reports",
    "is_exhaustive": "oracle: checks that a pattern set covers its whole "
    "input space, for the output oracles of ROADMAP item 4",
    "strongly_connected_components_reference": "reference twin of the "
    "compiled SCC kernel (tests/graphs/test_csr_equiv.py)",
    "least_area_lags_reference": "reference twin of the least-area descent "
    "(tests/retiming/test_fewest_registers.py)",
    "solve_cut_retiming_reference": "reference twin of solve_cut_retiming",
    "assign_cbit_reference": "reference twin of assign_cbit",
    "make_set_reference": "reference twin of make_set",
    # the paper's section 2.2 lemma statements
    "retimed_path_registers": "Lemma 1 on paths: f_r(p) = f(p) + r(v_n) "
    "- r(v_0), checked against the retimed edge weights",
    "cycle_register_count": "Corollary 2: a cycle's register count is "
    "invariant under retiming",
    # hooks tests use on live objects
    "LFSR.sequence": "hook: reads out a live LFSR's state sequence",
    "MISR.absorb_stream": "hook: feeds a live MISR a response stream",
    "Netlist.remove_cell": "hook: builds malformed netlists for the "
    "verifier's negative tests",
    "HotCache.peek": "hook: residency probe that touches neither stats "
    "nor recency",
    "reset_watchdog_stats": "hook: zeroes the process-wide watchdog "
    "counters between timeout tests",
    "sweep_beta": "the beta sweep, through which test_farm_determinism.py "
    "keeps beta points bit-identical at any --jobs",
    "seed_stability": "the seed sweep, through which "
    "test_farm_determinism.py keeps seed points bit-identical at any --jobs",
    "__getattr__": "the lazy module __getattr__s that keep the compile "
    "path's imports small",
    # fields
    "RetimedCircuit.po_map": "the PO map the output oracle of ROADMAP item "
    "4(a) needs",
    "HTTPRequest.headers": "the request headers ROADMAP item 1 needs for "
    "request ids",
    "RetimingSolution.iterations": "the descent's step count, read by "
    "tests/retiming/test_reference_identity.py",
}


@functools.lru_cache(maxsize=None)
def _trees():
    """Every module of the caller trees, parsed once: path -> tree."""
    return {
        path: ast.parse(path.read_text(), str(path))
        for tree_name in CALLER_TREES
        for path in sorted((ROOT / tree_name).rglob("*.py"))
    }


def _is_node_visitor(cls):
    return any(
        (isinstance(b, ast.Name) and b.id == "NodeVisitor")
        or (isinstance(b, ast.Attribute) and b.attr == "NodeVisitor")
        for b in cls.bases
    )


def _is_rule(fn):
    for deco in fn.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        if isinstance(target, ast.Name) and target.id == "rule":
            return True
    return False


def _checked_definitions(tree):
    """``(qualified name, bare name, node)`` of every checked definition."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.name, node
        if not isinstance(node, ast.ClassDef):
            continue
        visitor = _is_node_visitor(node)
        for sub in node.body:
            if not isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if visitor and sub.name.startswith("visit_"):
                continue
            yield f"{node.name}.{sub.name}", sub.name, sub


def _all_definitions(tree):
    """Qualified names of every definition, dataclass fields included."""
    for qual, _, _ in _checked_definitions(tree):
        yield qual
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.AnnAssign) and isinstance(
                    sub.target, ast.Name
                ):
                    yield f"{node.name}.{sub.target.id}"


def _loads():
    """Every loaded name outside the tests: name -> [(path, line)]."""
    uses = {}
    for path, tree in _trees().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                name = node.id
            elif isinstance(node, ast.Attribute) and isinstance(
                node.ctx, ast.Load
            ):
                name = node.attr
            else:
                continue
            uses.setdefault(name, []).append((path, node.lineno))
    return uses


def _package_modules():
    return [(p, t) for p, t in _trees().items() if PACKAGE in p.parents]


def test_every_definition_has_a_caller_outside_the_tests():
    uses = _loads()
    unreached = []
    for path, tree in _package_modules():
        for qual, name, node in _checked_definitions(tree):
            if name.startswith("__") and name.endswith("__"):
                continue
            if qual in KEPT or _is_rule(node):
                continue
            outside = [
                (p, line)
                for p, line in uses.get(name, ())
                if p != path or not node.lineno <= line <= node.end_lineno
            ]
            if not outside:
                rel = path.relative_to(ROOT)
                unreached.append(f"{rel}:{node.lineno} {qual}")
    assert not unreached, (
        "no code outside tests/ reaches these definitions; delete them "
        "(with the tests that check only them) or add each to KEPT with "
        "its reason:\n" + "\n".join(unreached)
    )


def test_every_kept_name_is_defined():
    defined = set()
    for _, tree in _package_modules():
        defined.update(_all_definitions(tree))
    assert not set(KEPT) - defined
