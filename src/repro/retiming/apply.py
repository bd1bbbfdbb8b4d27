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
from typing import Dict, List, Mapping, Tuple

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
    po_map: Dict[str, str]  # original PO name -> signal in retimed netlist
    n_registers_before: int
    n_registers_after: int


def apply_retiming(netlist: Netlist, rho: Mapping[str, int]) -> RetimedCircuit:
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
    out = Netlist(f"{netlist.name}_retimed")
    for pi in netlist.inputs:
        out.add_input(pi)

    def lag(node: str) -> int:
        return rho.get(node, 0)

    # (driver, registers) per comb-cell pin and per PO, and the longest
    # chain each driver's readers need
    need: Dict[str, int] = {}
    comb = list(netlist.comb_cells())
    pin_reads: List[Tuple[Tuple[str, int], ...]] = []
    for cell in comb:
        reads = []
        for sig in cell.inputs:
            driver, k = trace_to_driver(netlist, sig)
            w_new = k + lag(cell.output) - lag(driver)
            if w_new < 0:
                raise IllegalRetimingError(
                    f"connection {driver} -> {cell.output} would hold "
                    f"{w_new} registers"
                )
            reads.append((driver, w_new))
            need[driver] = max(need.get(driver, 0), w_new)
        pin_reads.append(tuple(reads))
    po_reads: List[Tuple[str, int]] = []
    for po in netlist.outputs:
        driver, k = trace_to_driver(netlist, po)
        w_new = k + lag(f"{PO_NODE_PREFIX}{po}") - lag(driver)
        if w_new < 0:
            raise IllegalRetimingError(
                f"output path {driver} -> {po} would hold {w_new} registers"
            )
        po_reads.append((driver, w_new))
        need[driver] = max(need.get(driver, 0), w_new)

    # one register chain per driver, shared across its fan-out:
    # chains[driver][i] is the signal i registers past the driver
    chains: Dict[str, List[str]] = {}
    for driver, n in need.items():
        chain = chains[driver] = [driver]
        for i in range(1, n + 1):
            reg = f"{driver}__rt{i}"
            out.add_dff(reg, chain[-1])
            chain.append(reg)

    # combinational cells with rewired pins
    for cell, reads in zip(comb, pin_reads):
        new_inputs = tuple(chains[driver][w] for driver, w in reads)
        out.add_cell(Cell(cell.output, cell.gtype, new_inputs))

    po_map: Dict[str, str] = {}
    for po, (driver, w) in zip(netlist.outputs, po_reads):
        sig = po_map[po] = chains[driver][w]
        if sig not in out.outputs:
            out.add_output(sig)

    out.validate()
    return RetimedCircuit(
        netlist=out,
        po_map=po_map,
        n_registers_before=sum(1 for _ in netlist.dff_cells()),
        n_registers_after=sum(need.values()),
    )
