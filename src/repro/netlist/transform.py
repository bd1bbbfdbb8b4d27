"""Signal naming for structural netlist edits.

Test-hardware insertion (:mod:`repro.cbit.insert`) names the signals it
adds with :func:`fresh_signal_name`.
"""

from __future__ import annotations

import itertools

from .netlist import Netlist

__all__ = ["fresh_signal_name"]


def fresh_signal_name(netlist: Netlist, base: str) -> str:
    """Return a signal name derived from ``base`` that is unused in ``netlist``."""
    if not netlist.has_signal(base):
        return base
    for i in itertools.count(1):
        candidate = f"{base}_{i}"
        if not netlist.has_signal(candidate):
            return candidate
    raise AssertionError("unreachable")
