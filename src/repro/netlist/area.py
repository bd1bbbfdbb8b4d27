"""Circuit- and test-hardware area accounting (Section 4 + Figure 3).

All figures are in abstract CMOS units with ``DFF = 10`` units, so one
"DFF equivalent" is 10 units.  The module exposes both the raw unit costs
and the DFF-relative factors quoted in the paper:

* a fresh **A_CELL** (AND2 + NOR2 + XOR2 + DFF) is ``1.9 ×`` DFF;
* converting an existing, retimed functional DFF into an A_CELL adds only
  the three gates: ``0.9 ×`` DFF;
* an A_CELL that cannot reuse a functional DFF also needs a 2-to-1 MUX to
  split the normal and self-test data paths; the paper quotes the total at
  ``2.3 ×`` DFF (the itemised gate sum is 22 units — we follow the quoted
  2.3 factor and record the 1-unit discrepancy here once, rather than
  scattering it).
"""

from __future__ import annotations

from .gates import DFF_AREA_UNITS, GateType, gate_area_units
from .netlist import Netlist

__all__ = [
    "DFF_AREA_UNITS",
    "ACELL_AREA_UNITS",
    "ACELL_RETIMED_EXTRA_UNITS",
    "ACELL_MUXED_AREA_UNITS",
    "ACELL_FACTOR",
    "ACELL_RETIMED_FACTOR",
    "ACELL_MUXED_FACTOR",
    "circuit_area_units",
]

#: Fresh A_CELL: 2-input AND (3) + 2-input NOR (2) + 2-input XOR (4) + DFF (10).
ACELL_AREA_UNITS = (
    gate_area_units(GateType.AND, 2)
    + gate_area_units(GateType.NOR, 2)
    + gate_area_units(GateType.XOR, 2)
    + DFF_AREA_UNITS
)

#: Converting an existing DFF to an A_CELL adds only the three logic gates.
ACELL_RETIMED_EXTRA_UNITS = ACELL_AREA_UNITS - DFF_AREA_UNITS

#: A_CELL + 2-to-1 MUX, per the paper's quoted 2.3 × DFF total.
ACELL_MUXED_AREA_UNITS = 23

ACELL_FACTOR = ACELL_AREA_UNITS / DFF_AREA_UNITS  # 1.9
ACELL_RETIMED_FACTOR = ACELL_RETIMED_EXTRA_UNITS / DFF_AREA_UNITS  # 0.9
ACELL_MUXED_FACTOR = ACELL_MUXED_AREA_UNITS / DFF_AREA_UNITS  # 2.3


def circuit_area_units(netlist: Netlist) -> int:
    """Estimated area of ``netlist`` per the Table 9 counting rules."""
    return netlist.area_units()
