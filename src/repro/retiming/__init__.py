"""Legal retiming: algebra, feasibility solving, application, verification."""

from .model import (
    Retiming,
    illegal_edges,
    retimed_path_registers,
    retimed_weight,
)
from .solve import (
    RetimingSolution,
    bellman_ford_constraints,
    solve_cut_retiming,
    solve_cut_retiming_reference,
)
from .apply import RetimedCircuit, apply_retiming, trace_to_driver
from .legality import connection_deltas, infer_retiming, verify_retiming

#: Exports the compile path never uses, imported on first access.
_LAZY = {
    "verify_drop_set": "verify",
    "check_equivalence": "initial_state",
    "find_equivalent_initial_state": "initial_state",
}

__all__ = [
    "Retiming",
    "illegal_edges",
    "retimed_path_registers",
    "retimed_weight",
    "RetimingSolution",
    "bellman_ford_constraints",
    "solve_cut_retiming",
    "solve_cut_retiming_reference",
    "verify_drop_set",
    "RetimedCircuit",
    "apply_retiming",
    "trace_to_driver",
    "connection_deltas",
    "infer_retiming",
    "verify_retiming",
    "check_equivalence",
    "find_equivalent_initial_state",
]


def __getattr__(name):
    if name in _LAZY:
        from importlib import import_module

        return getattr(import_module(f"{__name__}.{_LAZY[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
