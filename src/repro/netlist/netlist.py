"""Gate-level synchronous netlist container.

A :class:`Netlist` is a set of named signals.  Each signal is driven either
by a primary input or by exactly one :class:`~repro.netlist.cells.Cell`
(combinational gate or DFF).  This mirrors the ISCAS89 ``.bench`` view of a
circuit and maps directly onto the paper's graph model
``G(V = R ∪ C, E)``: DFF cells are the register nodes ``R``, other cells and
primary inputs are the combinational/source nodes ``C``, and each signal is a
multi-pin net (one driver, many fan-out branches).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..errors import NetlistError
from .cells import Cell
from .gates import GateType

__all__ = ["Netlist", "CircuitStats"]


@dataclass(frozen=True)
class CircuitStats:
    """Summary statistics in the shape of the paper's Table 9."""

    name: str
    n_inputs: int
    n_outputs: int
    n_dffs: int
    n_gates: int  # combinational cells other than inverters
    n_inverters: int
    area_units: int


class Netlist:
    """Mutable gate-level netlist.

    Example:
        >>> nl = Netlist("toy")
        >>> nl.add_input("a"); nl.add_input("b")
        >>> _ = nl.add_gate("g", GateType.NAND, ["a", "b"])
        >>> _ = nl.add_dff("q", "g")
        >>> nl.add_output("q")
        >>> nl.validate()
        >>> nl.stats().n_dffs
        1
    """

    def __init__(self, name: str = "circuit"):
        self.name = name
        self._inputs: List[str] = []
        self._outputs: List[str] = []
        self._cells: Dict[str, Cell] = {}
        self._input_set: set = set()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_input(self, signal: str) -> None:
        """Declare ``signal`` as a primary input."""
        if signal in self._input_set:
            raise NetlistError(f"duplicate primary input {signal!r}")
        if signal in self._cells:
            raise NetlistError(f"signal {signal!r} already driven by a cell")
        self._inputs.append(signal)
        self._input_set.add(signal)

    def add_output(self, signal: str) -> None:
        """Declare ``signal`` as a primary output (it may also fan out internally)."""
        if signal in self._outputs:
            raise NetlistError(f"duplicate primary output {signal!r}")
        self._outputs.append(signal)

    def add_cell(self, cell: Cell) -> Cell:
        """Insert ``cell``; its output signal must not already have a driver."""
        if cell.output in self._cells:
            raise NetlistError(f"signal {cell.output!r} already driven by a cell")
        if cell.output in self._input_set:
            raise NetlistError(f"signal {cell.output!r} is a primary input")
        self._cells[cell.output] = cell
        return cell

    def add_gate(self, output: str, gtype: GateType, inputs: Sequence[str]) -> Cell:
        """Convenience wrapper creating a combinational cell."""
        if gtype is GateType.DFF:
            raise NetlistError("use add_dff for flip-flops")
        return self.add_cell(Cell(output, gtype, tuple(inputs)))

    def add_dff(self, output: str, data_in: str) -> Cell:
        """Create a D flip-flop driving ``output`` from ``data_in``."""
        return self.add_cell(Cell(output, GateType.DFF, (data_in,)))

    def remove_cell(self, output: str) -> Cell:
        """Remove and return the cell driving ``output``.

        Fan-out references are left untouched; callers rewiring the netlist
        (e.g. retiming) must reconnect readers themselves and re-validate.
        """
        try:
            return self._cells.pop(output)
        except KeyError:
            raise NetlistError(f"no cell drives signal {output!r}") from None

    def replace_cell(self, cell: Cell) -> Cell:
        """Replace the existing driver of ``cell.output`` with ``cell``."""
        if cell.output not in self._cells:
            raise NetlistError(f"no cell drives signal {cell.output!r}")
        self._cells[cell.output] = cell
        return cell

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def inputs(self) -> Tuple[str, ...]:
        return tuple(self._inputs)

    @property
    def outputs(self) -> Tuple[str, ...]:
        return tuple(self._outputs)

    def is_input(self, signal: str) -> bool:
        return signal in self._input_set

    def has_signal(self, signal: str) -> bool:
        return signal in self._input_set or signal in self._cells

    def driver(self, signal: str) -> Optional[Cell]:
        """The cell driving ``signal``, or ``None`` for a primary input."""
        if signal in self._input_set:
            return None
        try:
            return self._cells[signal]
        except KeyError:
            raise NetlistError(f"unknown signal {signal!r}") from None

    def cell(self, output: str) -> Cell:
        try:
            return self._cells[output]
        except KeyError:
            raise NetlistError(f"no cell drives signal {output!r}") from None

    def cells(self) -> Iterator[Cell]:
        """All cells, in insertion order."""
        return iter(self._cells.values())

    def dff_cells(self) -> Iterator[Cell]:
        return (c for c in self._cells.values() if c.is_dff)

    def comb_cells(self) -> Iterator[Cell]:
        return (c for c in self._cells.values() if not c.is_dff)

    def signals(self) -> Iterator[str]:
        """All signal names: primary inputs first, then cell outputs."""
        yield from self._inputs
        yield from self._cells

    def fanout_map(self) -> Dict[str, List[Cell]]:
        """Map each signal to the cells that read it (fan-out branches)."""
        fan: Dict[str, List[Cell]] = {s: [] for s in self.signals()}
        for cell in self._cells.values():
            for sig in cell.inputs:
                fan.setdefault(sig, []).append(cell)
        return fan

    def __len__(self) -> int:
        return len(self._cells)

    def __contains__(self, signal: str) -> bool:
        return self.has_signal(signal)

    # ------------------------------------------------------------------
    # validation & analysis
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check structural sanity; raise :class:`NetlistError` on problems.

        Checks: every cell input and primary output names a driven signal;
        at least one primary input and one primary output; and the
        combinational core is acyclic (every feedback loop is broken by at
        least one DFF — the premise of the paper's synchronous model).
        """
        if not self._inputs:
            raise NetlistError(f"netlist {self.name!r} has no primary inputs")
        if not self._outputs:
            raise NetlistError(f"netlist {self.name!r} has no primary outputs")
        for cell in self._cells.values():
            for sig in cell.inputs:
                if not self.has_signal(sig):
                    raise NetlistError(
                        f"cell {cell.output!r} reads undriven signal {sig!r}"
                    )
        for sig in self._outputs:
            if not self.has_signal(sig):
                raise NetlistError(f"primary output {sig!r} is not driven")
        cycle = self._find_combinational_cycle()
        if cycle is not None:
            raise NetlistError(
                f"combinational cycle with no DFF: {' -> '.join(cycle)}"
            )

    def _find_combinational_cycle(self) -> Optional[List[str]]:
        """Return one purely combinational cycle as a signal list, else None."""
        WHITE, GRAY, BLACK = 0, 1, 2
        color: Dict[str, int] = {}
        parent: Dict[str, str] = {}
        comb = {o: c for o, c in self._cells.items() if not c.is_dff}
        for root in comb:
            if color.get(root, WHITE) != WHITE:
                continue
            stack: List[Tuple[str, Iterator[str]]] = [(root, iter(comb[root].inputs))]
            color[root] = GRAY
            while stack:
                node, it = stack[-1]
                advanced = False
                for nxt in it:
                    if nxt not in comb:
                        continue  # PI or DFF output: breaks the path
                    c = color.get(nxt, WHITE)
                    if c == GRAY:
                        # reconstruct cycle nxt -> ... -> node -> nxt
                        cyc = [node]
                        cur = node
                        while cur != nxt:
                            cur = parent[cur]
                            cyc.append(cur)
                        cyc.reverse()
                        cyc.append(nxt)
                        return cyc
                    if c == WHITE:
                        color[nxt] = GRAY
                        parent[nxt] = node
                        stack.append((nxt, iter(comb[nxt].inputs)))
                        advanced = True
                        break
                if not advanced:
                    color[node] = BLACK
                    stack.pop()
        return None

    def topological_comb_order(self) -> List[Cell]:
        """Combinational cells in dependency order (inputs before readers).

        DFF outputs and primary inputs are treated as sources.  Raises
        :class:`NetlistError` if the combinational core is cyclic.
        """
        comb = {o: c for o, c in self._cells.items() if not c.is_dff}
        indeg: Dict[str, int] = {}
        readers: Dict[str, List[str]] = {}
        for out, cell in comb.items():
            deg = 0
            for sig in cell.inputs:
                if sig in comb:
                    deg += 1
                    readers.setdefault(sig, []).append(out)
            indeg[out] = deg
        ready = [o for o, d in indeg.items() if d == 0]
        order: List[Cell] = []
        while ready:
            out = ready.pop()
            order.append(comb[out])
            for r in readers.get(out, ()):
                indeg[r] -= 1
                if indeg[r] == 0:
                    ready.append(r)
        if len(order) != len(comb):
            raise NetlistError("combinational core is cyclic; cannot levelize")
        return order

    def stats(self) -> CircuitStats:
        """Statistics in the shape of Table 9 (gates vs. inverters vs. DFFs)."""
        n_dff = n_inv = n_gate = 0
        area = 0
        for cell in self._cells.values():
            area += cell.area_units
            if cell.is_dff:
                n_dff += 1
            elif cell.gtype is GateType.NOT:
                n_inv += 1
            else:
                n_gate += 1
        return CircuitStats(
            name=self.name,
            n_inputs=len(self._inputs),
            n_outputs=len(self._outputs),
            n_dffs=n_dff,
            n_gates=n_gate,
            n_inverters=n_inv,
            area_units=area,
        )

    def area_units(self) -> int:
        """Total estimated circuit area in abstract units."""
        return sum(cell.area_units for cell in self._cells.values())

    # ------------------------------------------------------------------
    # copies
    # ------------------------------------------------------------------
    def copy(self) -> "Netlist":
        """Deep-enough copy (cells are immutable, so sharing them is safe)."""
        dup = Netlist(self.name)
        dup._inputs = list(self._inputs)
        dup._input_set = set(self._input_set)
        dup._outputs = list(self._outputs)
        dup._cells = dict(self._cells)
        return dup

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        s = self.stats()
        return (
            f"<Netlist {self.name!r}: {s.n_inputs} PI, {s.n_outputs} PO, "
            f"{s.n_dffs} DFF, {s.n_gates} gates, {s.n_inverters} INV, "
            f"area {s.area_units}>"
        )
