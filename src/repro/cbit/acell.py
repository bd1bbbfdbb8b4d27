"""A_CELL — the augmentable test register cell of Figure 3.

An A_CELL wraps a D flip-flop with a 2-input AND (scan/feedback gating),
a 2-input NOR (all-zero state injection so the LFSR visits the zero
pattern) and a 2-input XOR (feedback/signature compaction).  Three build
variants appear in the paper:

* ``FRESH`` (Figure 3(a)) — a brand-new A_CELL: the three gates plus a new
  DFF, 19 units = **1.9 × DFF**.
* ``RETIMED`` (Figure 3(b)) — an existing functional DFF moved to the cut
  location by retiming; only the three gates are added, 9 units =
  **0.9 × DFF**.
* ``MUXED`` (Figure 3(c)) — no functional DFF can legally reach the cut
  (Eq. 2 forbids changing cycle register counts), so a fresh A_CELL plus a
  2-to-1 MUX splits the normal path ``D_n → MUX → Q_n`` from the test path
  ``D_n → AND → XOR → DFF → MUX → Q_n``: **2.3 × DFF** as quoted.
"""

from __future__ import annotations

import enum

from ..netlist.area import (
    ACELL_AREA_UNITS,
    ACELL_MUXED_AREA_UNITS,
    ACELL_RETIMED_EXTRA_UNITS,
    DFF_AREA_UNITS,
)

__all__ = ["ACellVariant", "acell_area_dff"]


class ACellVariant(enum.Enum):
    """How the A_CELL at a cut net is realized."""

    FRESH = "fresh"  # new DFF + 3 gates (Figure 3(a))
    RETIMED = "retimed"  # existing DFF moved here + 3 gates (Figure 3(b))
    MUXED = "muxed"  # new DFF + 3 gates + 2:1 MUX (Figure 3(c))


_VARIANT_AREA = {
    ACellVariant.FRESH: ACELL_AREA_UNITS,
    ACellVariant.RETIMED: ACELL_RETIMED_EXTRA_UNITS,
    ACellVariant.MUXED: ACELL_MUXED_AREA_UNITS,
}


def acell_area_dff(variant: ACellVariant) -> float:
    """Added area in DFF equivalents (the paper's 1.9 / 0.9 / 2.3)."""
    return _VARIANT_AREA[variant] / DFF_AREA_UNITS
