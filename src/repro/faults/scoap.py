"""SCOAP testability analysis (Goldstein's controllability/observability).

The classic static testability measures used throughout the DFT
literature contemporary with the paper:

* ``CC0(s)`` / ``CC1(s)`` — combinational 0/1-controllability: the least
  number of input assignments (counted as per-gate effort, +1 per level)
  needed to drive signal ``s`` to 0/1;
* ``CO(s)`` — combinational observability: the effort to propagate ``s``
  to an observation point.

DFF outputs count as pseudo-primary inputs and DFF data inputs as
pseudo-primary outputs (the scan view, matching the rest of the fault
stack).  High SCOAP numbers flag the low-detectability faults that make
random BIST slow (see :mod:`repro.ppet.random_test`) and that motivate
pseudo-exhaustive segment testing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import SimulationError
from ..netlist.gates import GateType
from ..netlist.netlist import Netlist
from ..sim.levelize import levelize
from .model import StuckAtFault

__all__ = ["ScoapNumbers", "compute_scoap"]

#: SCOAP's conventional "infinite" (untestable) sentinel.
INF = 10**9


@dataclass(frozen=True)
class ScoapNumbers:
    """Per-signal controllability/observability."""

    cc0: Dict[str, int]
    cc1: Dict[str, int]
    co: Dict[str, int]

    def difficulty(self, fault: StuckAtFault) -> int:
        """SCOAP detection effort: activate (control opposite) + observe."""
        control = (
            self.cc1[fault.signal] if fault.value == 0 else self.cc0[fault.signal]
        )
        observe = self.co[fault.signal]
        if control >= INF or observe >= INF:
            return INF
        return control + observe


def _controllability(
    gtype: GateType, in0: List[int], in1: List[int]
) -> Tuple[int, int]:
    """(CC0, CC1) of a gate output from its inputs' numbers."""

    def add1(x: int) -> int:
        return x + 1 if x < INF else INF

    def s(vals: List[int]) -> int:
        total = sum(v for v in vals)
        return total if total < INF else INF

    if gtype in (GateType.AND, GateType.NAND):
        all1 = s(in1)
        any0 = min(in0)
        c0, c1 = any0, all1
    elif gtype in (GateType.OR, GateType.NOR):
        all0 = s(in0)
        any1 = min(in1)
        c0, c1 = all0, any1
    elif gtype in (GateType.XOR, GateType.XNOR):
        # parity gates: cheapest assignment achieving even/odd parity
        even, odd = 0, INF  # zero inputs have even parity for free
        for z, o in zip(in0, in1):
            new_even = min(even + z, odd + o)
            new_odd = min(even + o, odd + z)
            even, odd = new_even, new_odd
        c0, c1 = min(even, INF), min(odd, INF)
    elif gtype is GateType.NOT:
        c0, c1 = in1[0], in0[0]
    elif gtype is GateType.BUF:
        c0, c1 = in0[0], in1[0]
    elif gtype is GateType.MUX2:
        d0_0, d1_0, s_0 = in0
        d0_1, d1_1, s_1 = in1
        c0 = min(s_0 + d0_0, s_1 + d1_0)
        c1 = min(s_0 + d0_1, s_1 + d1_1)
    else:  # pragma: no cover - all types handled
        raise SimulationError(f"no SCOAP rule for {gtype}")
    if gtype in (GateType.NAND, GateType.NOR, GateType.XNOR):
        c0, c1 = c1, c0
    return add1(min(c0, INF)), add1(min(c1, INF))


def compute_scoap(
    netlist: Netlist, observe: Optional[Sequence[str]] = None
) -> ScoapNumbers:
    """Compute CC0/CC1/CO for every signal of the combinational core."""
    order = levelize(netlist).order
    cc0: Dict[str, int] = {}
    cc1: Dict[str, int] = {}
    pseudo_inputs = list(netlist.inputs) + [
        c.output for c in netlist.dff_cells()
    ]
    for sig in pseudo_inputs:
        cc0[sig] = cc1[sig] = 1
    for cell in order:
        in0 = [cc0[s] for s in cell.inputs]
        in1 = [cc1[s] for s in cell.inputs]
        cc0[cell.output], cc1[cell.output] = _controllability(
            cell.gtype, in0, in1
        )

    if observe is None:
        pseudo = [c.inputs[0] for c in netlist.dff_cells()]
        seen = set()
        observe = [
            o
            for o in tuple(netlist.outputs) + tuple(pseudo)
            if not (o in seen or seen.add(o))
        ]
    co: Dict[str, int] = {s: INF for s in cc0}
    for o in observe:
        co[o] = 0
    # reverse topological: propagate observability to gate inputs
    for cell in reversed(order):
        out_co = co[cell.output]
        if out_co >= INF:
            continue
        for pin, sig in enumerate(cell.inputs):
            others0 = [cc0[s] for i, s in enumerate(cell.inputs) if i != pin]
            others1 = [cc1[s] for i, s in enumerate(cell.inputs) if i != pin]
            if cell.gtype in (GateType.AND, GateType.NAND):
                side = sum(others1)  # others at non-controlling 1
            elif cell.gtype in (GateType.OR, GateType.NOR):
                side = sum(others0)
            elif cell.gtype in (GateType.XOR, GateType.XNOR):
                side = sum(min(a, b) for a, b in zip(others0, others1))
            elif cell.gtype in (GateType.NOT, GateType.BUF):
                side = 0
            elif cell.gtype is GateType.MUX2:
                if pin == 2:  # select: needs the data inputs to differ
                    side = min(
                        cc0[cell.inputs[0]] + cc1[cell.inputs[1]],
                        cc1[cell.inputs[0]] + cc0[cell.inputs[1]],
                    )
                else:  # data pin: select must route this pin
                    sel = cell.inputs[2]
                    side = cc1[sel] if pin == 1 else cc0[sel]
            else:  # pragma: no cover
                raise SimulationError(f"no SCOAP rule for {cell.gtype}")
            cand = out_co + side + 1
            if cand < co.get(sig, INF):
                co[sig] = cand
    return ScoapNumbers(cc0=cc0, cc1=cc1, co=co)

