"""Gate library: types, boolean semantics, and the CMOS area model.

The area numbers follow Section 4 of the paper (and Geiger/Allen/Strader's
CMOS text cited there): 1 unit per inverter, 3 units per 2-input AND, 2 per
2-input NAND, 3 per 2-input OR, 2 per 2-input NOR, 4 per 2-input XOR
(Figure 3), 10 per D flip-flop, and **+1 unit per input beyond the second**
for higher fan-in gates.  A DFF is the area yardstick: 1.0 "DFF equivalent"
equals 10 units.

Boolean evaluation works on *parallel pattern* words: each signal value is a
Python ``int`` whose bit ``i`` carries the value of the signal under pattern
``i``.  Evaluators receive the operand words plus a ``mask`` of the active
pattern bits so complements stay bounded.
"""

from __future__ import annotations

import enum
from functools import reduce
from typing import Callable, Dict, Sequence

from ..errors import NetlistError

__all__ = [
    "GateType",
    "DFF_AREA_UNITS",
    "gate_area_units",
    "GATE_EVALUATORS",
    "COMBINATIONAL_TYPES",
    "parse_gate_type",
]

#: Area of a plain (non-self-test) D flip-flop, in abstract CMOS units.
DFF_AREA_UNITS = 10


class GateType(enum.Enum):
    """Primitive cell types understood by the netlist and the simulator.

    The set matches what ISCAS89 ``.bench`` files use, plus ``MUX2`` (needed
    by the self-test hardware of Figure 3(c)).
    """

    AND = "AND"
    NAND = "NAND"
    OR = "OR"
    NOR = "NOR"
    XOR = "XOR"
    XNOR = "XNOR"
    NOT = "NOT"
    BUF = "BUF"
    DFF = "DFF"
    MUX2 = "MUX2"

    @property
    def is_sequential(self) -> bool:
        return self is GateType.DFF


#: Gate types that are purely combinational.
COMBINATIONAL_TYPES = frozenset(t for t in GateType if not t.is_sequential)

#: Base area (in units) of the 2-input (or 1-input) version of each type.
_BASE_AREA: Dict[GateType, int] = {
    GateType.AND: 3,
    GateType.NAND: 2,
    GateType.OR: 3,
    GateType.NOR: 2,
    GateType.XOR: 4,
    GateType.XNOR: 5,  # XOR + output inverter
    GateType.NOT: 1,
    GateType.BUF: 2,  # two cascaded inverters
    GateType.DFF: DFF_AREA_UNITS,
    GateType.MUX2: 3,  # Figure 3(c): 2-to-1 MUX quoted at 3 units
}

#: Fan-in of the base-area variant (inputs beyond this cost +1 unit each).
_BASE_FANIN: Dict[GateType, int] = {
    GateType.AND: 2,
    GateType.NAND: 2,
    GateType.OR: 2,
    GateType.NOR: 2,
    GateType.XOR: 2,
    GateType.XNOR: 2,
    GateType.NOT: 1,
    GateType.BUF: 1,
    GateType.DFF: 1,
    GateType.MUX2: 3,  # data0, data1, select
}

#: Legal fan-in range per type (min, max); ``None`` max means unbounded.
_FANIN_RANGE: Dict[GateType, tuple] = {
    GateType.AND: (2, None),
    GateType.NAND: (2, None),
    GateType.OR: (2, None),
    GateType.NOR: (2, None),
    GateType.XOR: (2, None),
    GateType.XNOR: (2, None),
    GateType.NOT: (1, 1),
    GateType.BUF: (1, 1),
    GateType.DFF: (1, 1),
    GateType.MUX2: (3, 3),
}


def check_fanin(gtype: GateType, n_inputs: int) -> None:
    """Raise :class:`NetlistError` if ``n_inputs`` is illegal for ``gtype``."""
    lo, hi = _FANIN_RANGE[gtype]
    if n_inputs < lo or (hi is not None and n_inputs > hi):
        raise NetlistError(
            f"{gtype.value} gate cannot have {n_inputs} input(s); "
            f"expected {lo}{'' if hi == lo else f'..{hi if hi is not None else chr(0x221e)}'}"
        )


def gate_area_units(gtype: GateType, n_inputs: int) -> int:
    """Area in abstract units of a ``gtype`` cell with ``n_inputs`` inputs.

    Implements the paper's scaling rule: gates with fan-in above the base
    variant are charged one extra unit per additional input.

    >>> gate_area_units(GateType.NAND, 2)
    2
    >>> gate_area_units(GateType.NAND, 4)
    4
    >>> gate_area_units(GateType.DFF, 1)
    10
    """
    check_fanin(gtype, n_inputs)
    extra = max(0, n_inputs - _BASE_FANIN[gtype])
    return _BASE_AREA[gtype] + extra


def _eval_and(inputs: Sequence[int], mask: int) -> int:
    return reduce(lambda a, b: a & b, inputs)


def _eval_nand(inputs: Sequence[int], mask: int) -> int:
    return ~_eval_and(inputs, mask) & mask


def _eval_or(inputs: Sequence[int], mask: int) -> int:
    return reduce(lambda a, b: a | b, inputs)


def _eval_nor(inputs: Sequence[int], mask: int) -> int:
    return ~_eval_or(inputs, mask) & mask


def _eval_xor(inputs: Sequence[int], mask: int) -> int:
    return reduce(lambda a, b: a ^ b, inputs)


def _eval_xnor(inputs: Sequence[int], mask: int) -> int:
    return ~_eval_xor(inputs, mask) & mask


def _eval_not(inputs: Sequence[int], mask: int) -> int:
    return ~inputs[0] & mask


def _eval_buf(inputs: Sequence[int], mask: int) -> int:
    return inputs[0] & mask


def _eval_mux2(inputs: Sequence[int], mask: int) -> int:
    d0, d1, sel = inputs
    return (d0 & ~sel & mask) | (d1 & sel)


#: Combinational evaluators; DFFs are handled by the sequential simulator.
GATE_EVALUATORS: Dict[GateType, Callable[[Sequence[int], int], int]] = {
    GateType.AND: _eval_and,
    GateType.NAND: _eval_nand,
    GateType.OR: _eval_or,
    GateType.NOR: _eval_nor,
    GateType.XOR: _eval_xor,
    GateType.XNOR: _eval_xnor,
    GateType.NOT: _eval_not,
    GateType.BUF: _eval_buf,
    GateType.MUX2: _eval_mux2,
}


#: Accepted spellings in .bench files (case-insensitive) → canonical type.
_BENCH_ALIASES: Dict[str, GateType] = {
    "AND": GateType.AND,
    "NAND": GateType.NAND,
    "OR": GateType.OR,
    "NOR": GateType.NOR,
    "XOR": GateType.XOR,
    "XNOR": GateType.XNOR,
    "NOT": GateType.NOT,
    "INV": GateType.NOT,
    "BUF": GateType.BUF,
    "BUFF": GateType.BUF,
    "DFF": GateType.DFF,
    "MUX": GateType.MUX2,
    "MUX2": GateType.MUX2,
}


def parse_gate_type(token: str) -> GateType:
    """Map a ``.bench`` function token (e.g. ``"BUFF"``) to a :class:`GateType`."""
    try:
        return _BENCH_ALIASES[token.strip().upper()]
    except KeyError:
        raise NetlistError(f"unknown gate type token {token!r}") from None
