"""CBIT size catalogue (Table 1) and the CBIT area/cost model.

Table 1 of the paper lists six CBIT types ``d1..d6`` with lengths 4, 8,
12, 16, 24, 32.  Column 3 (``p_k``, area relative to one DFF) is the cost
of a CBIT whose every register is a fresh A_CELL and whose feedback
polynomial is primitive; column 4 is the per-bit cost ``σ_k = p_k / l_k``,
which *decreases* with length — the economy that motivates the greedy
cluster merging of ``Assign_CBIT``.

We keep the paper's published ``p_k`` values as canonical and also provide
a first-principles estimate (A_CELLs + feedback XOR tree + mode control)
for arbitrary lengths; the bench for Table 1 prints both side by side.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from ..errors import CBITError
from ..netlist.area import ACELL_AREA_UNITS, DFF_AREA_UNITS
from ..netlist.gates import GateType, gate_area_units
from .polynomials import feedback_taps, primitive_polynomial

__all__ = [
    "CBITType",
    "PAPER_CBIT_TYPES",
    "smallest_type_for",
    "estimate_cbit_area_dff",
    "cbit_cost_for_inputs",
]


@dataclass(frozen=True)
class CBITType:
    """One row of Table 1."""

    name: str  # d1..d6
    length: int  # l_k
    area_dff: float  # p_k: area relative to one plain DFF

    @property
    def area_per_bit(self) -> float:
        """σ_k = p_k / l_k (Table 1, column 4)."""
        return self.area_dff / self.length

    @property
    def testing_time(self) -> int:
        """Pseudo-exhaustive pattern count: 2^l_k clock cycles."""
        return 1 << self.length


#: Table 1 of the paper, verbatim.
PAPER_CBIT_TYPES: Tuple[CBITType, ...] = (
    CBITType("d1", 4, 8.14),
    CBITType("d2", 8, 16.68),
    CBITType("d3", 12, 24.48),
    CBITType("d4", 16, 32.21),
    CBITType("d5", 24, 47.66),
    CBITType("d6", 32, 63.12),
)


def smallest_type_for(width: int) -> CBITType:
    """Smallest catalogue type whose length covers ``width`` inputs."""
    if width < 0:
        raise CBITError(f"width must be non-negative, got {width}")
    for t in PAPER_CBIT_TYPES:
        if t.length >= width:
            return t
    raise CBITError(
        f"width {width} exceeds the largest CBIT type "
        f"(d6, length {PAPER_CBIT_TYPES[-1].length})"
    )


def estimate_cbit_area_dff(length: int) -> float:
    """First-principles CBIT area estimate in DFF equivalents.

    ``length`` fresh A_CELLs (1.9 each) + the feedback XOR tree of the
    canonical primitive polynomial (one 2-input XOR per tap beyond the
    first) + one 2-input NOR of mode control.  This tracks the paper's
    ``p_k`` within a few percent; the published values remain canonical.
    """
    if length < 2:
        raise CBITError(f"CBIT length must be >= 2, got {length}")
    taps = feedback_taps(primitive_polynomial(length))
    n_xors = max(0, len(taps))  # taps + constant term fold into XOR chain
    units = (
        length * ACELL_AREA_UNITS
        + n_xors * gate_area_units(GateType.XOR, 2)
        + gate_area_units(GateType.NOR, 2)
    )
    return units / DFF_AREA_UNITS


def cbit_cost_for_inputs(n_inputs: int) -> Tuple[float, List[CBITType]]:
    """Cheapest Table 1 CBIT (cascade) covering ``n_inputs`` bits.

    Clusters wider than the largest type use cascaded CBITs (CBITs are
    cascadable by construction); within the catalogue the smallest
    covering type (:func:`smallest_type_for`) is also the cheapest
    because ``p_k`` grows with length.

    Returns:
        ``(total p cost in DFF equivalents, list of types used)``.
    """
    if n_inputs < 0:
        raise CBITError(f"n_inputs must be non-negative, got {n_inputs}")
    if n_inputs == 0:
        return 0.0, []
    largest = PAPER_CBIT_TYPES[-1]
    types: List[CBITType] = []
    remaining = n_inputs
    while remaining > largest.length:
        types.append(largest)
        remaining -= largest.length
    types.append(smallest_type_for(remaining))
    return sum(t.area_dff for t in types), types
