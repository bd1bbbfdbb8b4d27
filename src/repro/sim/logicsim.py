"""Parallel-pattern combinational logic simulation.

Signal values are Python ints used as bit-vectors: bit ``i`` of a word is
the signal's value under pattern ``i``, so one pass over the levelized
netlist evaluates arbitrarily many patterns at once (Python's big ints
make the "machine word" as wide as the pattern block).
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence

from ..errors import SimulationError
from ..netlist.gates import GATE_EVALUATORS
from ..netlist.netlist import Netlist
from .levelize import levelize

__all__ = ["CombSimulator", "ScalarSimulator", "pack_patterns"]


def pack_patterns(patterns: Sequence[Mapping[str, int]], signals: Sequence[str]) -> Dict[str, int]:
    """Pack per-pattern 0/1 assignments into parallel words.

    >>> pack_patterns([{"a": 1}, {"a": 0}, {"a": 1}], ["a"])
    {'a': 5}
    """
    words = {s: 0 for s in signals}
    for i, pat in enumerate(patterns):
        for s in signals:
            if pat[s] & 1:
                words[s] |= 1 << i
    return words


class CombSimulator:
    """Evaluator for the combinational core of a netlist.

    The simulator is reusable: build once, call :meth:`run` per pattern
    block.  DFF outputs are treated as pseudo-primary inputs (their values
    must be supplied alongside the PIs), which is exactly the PPET view of
    a circuit segment.
    """

    def __init__(self, netlist: Netlist):
        self.netlist = netlist
        self.levelized = levelize(netlist)
        self._pseudo_inputs = tuple(netlist.inputs) + tuple(
            c.output for c in netlist.dff_cells()
        )

    @property
    def pseudo_inputs(self) -> tuple:
        """Signals the caller must drive: PIs + DFF outputs."""
        return self._pseudo_inputs

    def run(
        self,
        inputs: Mapping[str, int],
        n_patterns: int,
        faults: Optional[Mapping[str, tuple]] = None,
    ) -> Dict[str, int]:
        """Evaluate all combinational signals for a block of patterns.

        Args:
            inputs: parallel words for every pseudo-primary input.
            n_patterns: number of valid pattern bits in each word.
            faults: optional stuck-at overrides ``signal -> (and_mask,
                or_mask)`` applied to the signal's *driven* value —
                stuck-at-0 is ``(0, 0)``, stuck-at-1 is ``(mask, mask)``
                with ``mask = 2^n_patterns − 1``.  (The self-test
                session grades faults through this hook; see
                :mod:`repro.ppet.session`.)

        Returns:
            signal → parallel word, for every signal in the circuit.
        """
        if n_patterns < 1:
            raise SimulationError("n_patterns must be positive")
        mask = (1 << n_patterns) - 1
        values: Dict[str, int] = {}
        for sig in self._pseudo_inputs:
            try:
                values[sig] = inputs[sig] & mask
            except KeyError:
                raise SimulationError(
                    f"missing drive for pseudo-primary input {sig!r}"
                ) from None
        if faults:
            for sig in self._pseudo_inputs:
                if sig in faults:
                    and_m, or_m = faults[sig]
                    values[sig] = (values[sig] & and_m) | or_m
        for cell in self.levelized.order:
            ins = [values[s] for s in cell.inputs]
            out = GATE_EVALUATORS[cell.gtype](ins, mask)
            if faults and cell.output in faults:
                and_m, or_m = faults[cell.output]
                out = (out & and_m) | or_m
            values[cell.output] = out & mask
        return values


class ScalarSimulator:
    """Reference oracle: one pattern at a time, plain 0/1 signal values.

    This is the simulator the bit-parallel engine is validated against:
    it shares the gate semantics (:data:`GATE_EVALUATORS` with a 1-bit
    mask) and the levelized evaluation order with
    :class:`CombSimulator`, but every signal is a bare 0/1 int, so there
    is no word packing to get wrong.  The equivalence property tests and
    ``benchmarks/bench_perf_trace.py`` both drive it; production code
    should use :class:`CombSimulator`.
    """

    def __init__(self, netlist: Netlist):
        self.netlist = netlist
        self.levelized = levelize(netlist)
        self._pseudo_inputs = tuple(netlist.inputs) + tuple(
            c.output for c in netlist.dff_cells()
        )

    @property
    def pseudo_inputs(self) -> tuple:
        """Signals the caller must drive: PIs + DFF outputs."""
        return self._pseudo_inputs

    def run_pattern(
        self,
        pattern: Mapping[str, int],
        faults: Optional[Mapping[str, tuple]] = None,
    ) -> Dict[str, int]:
        """Evaluate every combinational signal for one input pattern.

        Args:
            pattern: 0/1 value for every pseudo-primary input.
            faults: optional stuck-at overrides ``signal -> (and_mask,
                or_mask)`` with 1-bit masks (stuck-at-0 is ``(0, 0)``,
                stuck-at-1 is ``(1, 1)``).

        Returns:
            signal → 0/1 value, for every signal in the circuit.
        """
        values: Dict[str, int] = {}
        for sig in self._pseudo_inputs:
            try:
                values[sig] = pattern[sig] & 1
            except KeyError:
                raise SimulationError(
                    f"missing drive for pseudo-primary input {sig!r}"
                ) from None
        if faults:
            for sig in self._pseudo_inputs:
                if sig in faults:
                    and_m, or_m = faults[sig]
                    values[sig] = (values[sig] & and_m) | or_m
        for cell in self.levelized.order:
            ins = [values[s] for s in cell.inputs]
            out = GATE_EVALUATORS[cell.gtype](ins, 1)
            if faults and cell.output in faults:
                and_m, or_m = faults[cell.output]
                out = (out & and_m) | or_m
            values[cell.output] = out & 1
        return values

    def run_patterns(
        self,
        patterns: Sequence[Mapping[str, int]],
        faults: Optional[Mapping[str, tuple]] = None,
    ) -> List[Dict[str, int]]:
        """Evaluate a pattern list one at a time (the scalar baseline)."""
        return [self.run_pattern(p, faults=faults) for p in patterns]
