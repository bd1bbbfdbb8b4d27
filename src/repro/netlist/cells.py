"""Cell record used by :class:`repro.netlist.netlist.Netlist`.

The netlist follows the ISCAS89 signal-centric convention: every cell drives
exactly one named signal, and the signal is identified with the cell that
drives it.  A *net* is therefore a driving signal plus the set of cells that
read it (its fan-out branches) — the "multi-pin" net model of Section 2.1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from .gates import GateType, check_fanin, gate_area_units

__all__ = ["Cell"]


@dataclass(frozen=True)
class Cell:
    """One primitive cell.

    A retimed netlist holds one cell per register, tens of thousands at
    corpus scale, so the record has slots instead of a ``__dict__``.
    They are declared by hand (``dataclass(slots=True)`` needs Python
    3.10), which is why no field has a default.

    Attributes:
        output: name of the signal this cell drives (also the cell's name).
        gtype: primitive function of the cell.
        inputs: names of the signals read by the cell, in pin order.
    """

    __slots__ = ("output", "gtype", "inputs")

    output: str
    gtype: GateType
    inputs: Tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.output:
            raise ValueError("cell output signal name must be non-empty")
        object.__setattr__(self, "inputs", tuple(self.inputs))
        check_fanin(self.gtype, len(self.inputs))

    def __reduce__(self):
        # The default slot-state unpickling would assign each slot
        # through the frozen ``__setattr__``; rebuild through
        # ``__init__`` instead.
        return Cell, (self.output, self.gtype, self.inputs)

    @property
    def is_dff(self) -> bool:
        return self.gtype is GateType.DFF

    @property
    def fanin(self) -> int:
        return len(self.inputs)

    @property
    def area_units(self) -> int:
        """Area of this cell in abstract CMOS units (DFF = 10)."""
        return gate_area_units(self.gtype, self.fanin)

    def with_inputs(self, inputs: Tuple[str, ...]) -> "Cell":
        """Return a copy of this cell reading from ``inputs`` instead."""
        return Cell(self.output, self.gtype, tuple(inputs))

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return f"{self.output} = {self.gtype.value}({', '.join(self.inputs)})"
