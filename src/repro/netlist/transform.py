"""Structural netlist edits on the signal-centric model.

Inserting a DFF on a net means introducing a fresh signal driven by the
new DFF and retargeting (a subset of) the net's readers to it.
Test-hardware insertion (:mod:`repro.cbit.insert`) names the signals it
adds with :func:`fresh_signal_name`.  Nothing in the package calls the
four DFF edits: :func:`repro.retiming.apply.apply_retiming` builds the
retimed netlist anew instead of editing one in place.
"""

from __future__ import annotations

import itertools
from typing import Optional, Set

from ..errors import NetlistError
from .netlist import Netlist

__all__ = [
    "fresh_signal_name",
    "insert_dff_on_net",
    "bypass_dff",
    "retarget_readers",
    "count_dffs_between",
]


def fresh_signal_name(netlist: Netlist, base: str) -> str:
    """Return a signal name derived from ``base`` that is unused in ``netlist``."""
    if not netlist.has_signal(base):
        return base
    for i in itertools.count(1):
        candidate = f"{base}_{i}"
        if not netlist.has_signal(candidate):
            return candidate
    raise AssertionError("unreachable")


def retarget_readers(
    netlist: Netlist,
    old_signal: str,
    new_signal: str,
    only_cells: Optional[Set[str]] = None,
) -> int:
    """Rewire cells reading ``old_signal`` to read ``new_signal`` instead.

    Args:
        only_cells: if given, restrict the rewiring to cells whose output
            name is in this set (supports splitting a multi-pin net).

    Returns:
        Number of input pins rewired.
    """
    if not netlist.has_signal(new_signal):
        raise NetlistError(f"unknown signal {new_signal!r}")
    rewired = 0
    for cell in list(netlist.cells()):
        if old_signal not in cell.inputs:
            continue
        if only_cells is not None and cell.output not in only_cells:
            continue
        new_inputs = tuple(
            new_signal if sig == old_signal else sig for sig in cell.inputs
        )
        netlist.replace_cell(cell.with_inputs(new_inputs))
        rewired += cell.inputs.count(old_signal)
    return rewired


def insert_dff_on_net(
    netlist: Netlist,
    signal: str,
    only_cells: Optional[Set[str]] = None,
    dff_name: Optional[str] = None,
    retarget_outputs: bool = False,
) -> str:
    """Insert a DFF after ``signal`` and move (some) readers behind it.

    Creates ``dff_name = DFF(signal)`` and retargets the readers selected by
    ``only_cells`` (all readers when ``None``) to the new DFF output.  When
    ``retarget_outputs`` is true, primary outputs driven by ``signal`` are
    also moved behind the register.

    Returns:
        The name of the new DFF output signal.
    """
    if not netlist.has_signal(signal):
        raise NetlistError(f"unknown signal {signal!r}")
    name = dff_name or fresh_signal_name(netlist, f"{signal}__r")
    netlist.add_dff(name, signal)
    retarget_readers(netlist, signal, name, only_cells=only_cells)
    if retarget_outputs and signal in netlist.outputs:
        netlist.remove_output(signal)
        netlist.add_output(name)
    return name


def bypass_dff(netlist: Netlist, dff_output: str) -> str:
    """Remove the DFF driving ``dff_output``; readers see its data input.

    This is the elementary backward register move of retiming.  Returns the
    signal the readers were reconnected to.
    """
    cell = netlist.cell(dff_output)
    if not cell.is_dff:
        raise NetlistError(f"{dff_output!r} is not a DFF output")
    source = cell.inputs[0]
    netlist.remove_cell(dff_output)
    retarget_readers(netlist, dff_output, source)
    if dff_output in netlist.outputs:
        netlist.remove_output(dff_output)
        if source not in netlist.outputs:
            netlist.add_output(source)
    return source


def count_dffs_between(netlist: Netlist, chain_head: str) -> int:
    """Length of the pure DFF chain ending at signal ``chain_head``.

    Walks backwards while the driver is a DFF; useful for verifying that
    retiming preserved per-path register counts on simple pipelines.
    """
    count = 0
    sig = chain_head
    seen = set()
    while True:
        if sig in seen:  # cycle of DFFs
            break
        seen.add(sig)
        cell = netlist.driver(sig)
        if cell is None or not cell.is_dff:
            break
        count += 1
        sig = cell.inputs[0]
    return count
