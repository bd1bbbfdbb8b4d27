"""Apply a retiming vector to a netlist, rebuilding register placement.

Given ``ρ`` over the non-register nodes (comb cells, PIs, virtual PO
sinks), every cell-to-cell connection that originally passed ``k``
registers is rebuilt with ``k + ρ(head) − ρ(tail)`` registers.  Registers
on the fan-out of one driver are shared as a single chain (the classic
fan-out register sharing of Leiserson–Saxe), so moving registers across a
high-fanout gate can *reduce* total register count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Tuple

from ..errors import IllegalRetimingError, RetimingError
from ..graphs.build import PO_NODE_PREFIX
from ..netlist.cells import Cell
from ..netlist.netlist import Netlist

__all__ = ["RetimedCircuit", "trace_to_driver", "apply_retiming"]


def trace_to_driver(netlist: Netlist, signal: str) -> Tuple[str, int]:
    """Walk backward through registers to the first non-register driver.

    Returns ``(driver_signal, k)`` where ``k`` is the number of registers
    crossed.  Raises :class:`RetimingError` on a pure register ring.
    """
    k = 0
    sig = signal
    limit = len(netlist) + 1
    while True:
        cell = netlist.driver(sig)
        if cell is None or not cell.is_dff:
            return sig, k
        k += 1
        sig = cell.inputs[0]
        limit -= 1
        if limit < 0:
            raise RetimingError(
                f"pure register cycle while tracing {signal!r}"
            )


@dataclass
class RetimedCircuit:
    """Result of :func:`apply_retiming`."""

    netlist: Netlist
    rho: Dict[str, int]
    po_map: Dict[str, str]  # original PO name -> signal in retimed netlist
    n_registers_before: int
    n_registers_after: int


def apply_retiming(
    netlist: Netlist,
    rho: Mapping[str, int],
    name: Optional[str] = None,
) -> RetimedCircuit:
    """Build the retimed version of ``netlist`` under ``ρ``.

    ``ρ`` keys are combinational cell names, primary input names, and
    (optionally) virtual PO sinks ``__po__<name>``; missing keys default
    to 0.  All combinational cells keep their names and functions; every
    DFF is rebuilt as part of a fan-out-shared chain named
    ``<driver>__rt<i>``.

    Raises:
        IllegalRetimingError: some connection's register count would go
            negative (Corollary 3 violated).
    """
    out = Netlist(name or f"{netlist.name}_retimed")
    for pi in netlist.inputs:
        out.add_input(pi)

    def lag(node: str) -> int:
        return rho.get(node, 0)

    # desired register count per (reader cell pin) and per PO
    chain_need: Dict[str, int] = {}  # driver -> max registers needed
    pin_regs: Dict[Tuple[str, int], Tuple[str, int]] = {}
    po_regs: Dict[str, Tuple[str, int]] = {}

    for cell in netlist.comb_cells():
        for pin, sig in enumerate(cell.inputs):
            driver, k = trace_to_driver(netlist, sig)
            w_new = k + lag(cell.output) - lag(driver)
            if w_new < 0:
                raise IllegalRetimingError(
                    f"connection {driver} -> {cell.output} would hold "
                    f"{w_new} registers"
                )
            pin_regs[(cell.output, pin)] = (driver, w_new)
            chain_need[driver] = max(chain_need.get(driver, 0), w_new)
    for po in netlist.outputs:
        driver, k = trace_to_driver(netlist, po)
        w_new = k + lag(f"{PO_NODE_PREFIX}{po}") - lag(driver)
        if w_new < 0:
            raise IllegalRetimingError(
                f"output path {driver} -> {po} would hold {w_new} registers"
            )
        po_regs[po] = (driver, w_new)
        chain_need[driver] = max(chain_need.get(driver, 0), w_new)

    # register chains, shared across each driver's fan-out
    chain_sig: Dict[Tuple[str, int], str] = {}
    for driver, need in chain_need.items():
        prev = driver
        chain_sig[(driver, 0)] = driver
        for i in range(1, need + 1):
            reg = f"{driver}__rt{i}"
            out.add_dff(reg, prev)
            chain_sig[(driver, i)] = reg
            prev = reg

    # combinational cells with rewired pins
    for cell in netlist.comb_cells():
        new_inputs = tuple(
            chain_sig[pin_regs[(cell.output, pin)]]
            for pin in range(cell.fanin)
        )
        out.add_cell(Cell(cell.output, cell.gtype, new_inputs))

    po_map: Dict[str, str] = {}
    for po in netlist.outputs:
        sig = chain_sig[po_regs[po]]
        po_map[po] = sig
        if sig not in out.outputs:
            out.add_output(sig)

    out.validate()
    return RetimedCircuit(
        netlist=out,
        rho=dict(rho),
        po_map=po_map,
        n_registers_before=sum(1 for _ in netlist.dff_cells()),
        n_registers_after=sum(1 for _ in out.dff_cells()),
    )
