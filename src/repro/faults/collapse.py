"""Structural fault collapsing by equivalence.

Two faults are equivalent when every test for one detects the other; the
fault simulator then only needs one representative per class.  We collapse
the unconditional structural equivalences among *stem* faults:

* through a NOT with a fanout-free input: ``in/sa0 ≡ out/sa1`` and
  ``in/sa1 ≡ out/sa0``;
* through a BUF or DFF with a fanout-free input: same polarity.

(The classic input-pin collapses of AND/OR gates relate *pin* faults,
which are outside the stem-fault universe; stem collapsing is exact for
the universe we simulate.)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Set

from ..netlist.gates import GateType
from ..netlist.netlist import Netlist
from .model import StuckAtFault

__all__ = ["CollapseResult", "collapse_faults"]


@dataclass
class CollapseResult:
    """Representatives plus the class map of a fault-collapse run."""

    representatives: List[StuckAtFault]
    class_of: Dict[StuckAtFault, StuckAtFault]  # fault -> its representative

    def expand(self, detected: Iterable[StuckAtFault]) -> Set[StuckAtFault]:
        """All faults whose representative is in ``detected``."""
        det = set(detected)
        return {f for f, rep in self.class_of.items() if rep in det}


def collapse_faults(
    netlist: Netlist, faults: Iterable[StuckAtFault]
) -> CollapseResult:
    """Collapse ``faults`` into equivalence-class representatives.

    The representative of a class is the fault on the most-downstream
    signal (the chain's sink), which keeps observation closest to the
    outputs.
    """
    faults = list(faults)
    fan = netlist.fanout_map()
    out_set = set(netlist.outputs)

    def chain_parent(fault: StuckAtFault) -> StuckAtFault:
        """The downstream-equivalent fault one inverter/buffer later."""
        readers = fan.get(fault.signal, [])
        if len(readers) != 1 or fault.signal in out_set:
            return fault
        reader = readers[0]
        if reader.inputs.count(fault.signal) != 1:
            return fault
        if reader.gtype is GateType.NOT:
            return StuckAtFault(reader.output, 1 - fault.value)
        if reader.gtype in (GateType.BUF, GateType.DFF):
            return StuckAtFault(reader.output, fault.value)
        return fault

    universe = set(faults)
    class_of: Dict[StuckAtFault, StuckAtFault] = {}
    for fault in faults:
        rep = fault
        seen = {rep}
        while True:
            nxt = chain_parent(rep)
            if nxt == rep or nxt in seen:
                break
            # only chain through faults that exist in the universe or are
            # pure bookkeeping hops (the hop target is what we simulate)
            rep = nxt
            seen.add(rep)
        class_of[fault] = rep
    representatives = sorted(set(class_of.values()))
    return CollapseResult(representatives=representatives, class_of=class_of)
