"""Clocked sequential simulation on top of the combinational engine.

Runs one pattern at a time (or a parallel block of independent runs) by
alternating combinational evaluation with a synchronous register update.
Used for retiming equivalence checks and for end-to-end self-test
demonstrations.
"""

from __future__ import annotations

import random
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..errors import SimulationError
from ..netlist.netlist import Netlist
from .logicsim import CombSimulator

__all__ = ["SequentialSimulator", "random_input_sequence"]


class SequentialSimulator:
    """Cycle-accurate simulator of a synchronous netlist.

    State is a mapping ``dff output -> parallel word``; inputs are applied
    per clock.  Multiple independent runs can share a call by packing them
    into the pattern bits of each word.

    Example:
        >>> from repro.circuits import s27_netlist
        >>> sim = SequentialSimulator(s27_netlist())
        >>> outs = sim.run([{ "G0": 0, "G1": 1, "G2": 0, "G3": 1 }] * 3)
        >>> len(outs)
        3
    """

    def __init__(self, netlist: Netlist):
        self.netlist = netlist
        self.comb = CombSimulator(netlist)
        self._dffs = tuple(netlist.dff_cells())
        self.state: Dict[str, int] = {c.output: 0 for c in self._dffs}

    def reset(self, state: Optional[Mapping[str, int]] = None) -> None:
        """Load a register state (all-zero by default)."""
        self.state = {c.output: 0 for c in self._dffs}
        if state:
            for k, v in state.items():
                if k not in self.state:
                    raise SimulationError(f"{k!r} is not a DFF output")
                self.state[k] = v

    def step(
        self,
        inputs: Mapping[str, int],
        n_patterns: int = 1,
        faults: Optional[Mapping[str, tuple]] = None,
    ) -> Dict[str, int]:
        """Advance one clock; returns all signal values *before* the edge.

        ``faults`` are stuck-at override masks per signal (see
        :meth:`repro.sim.logicsim.CombSimulator.run`); a faulty machine is
        simulated by passing the same masks every clock.
        """
        drive = dict(inputs)
        for q, v in self.state.items():
            drive[q] = v
        values = self.comb.run(drive, n_patterns, faults=faults)
        mask = (1 << n_patterns) - 1
        self.state = {
            c.output: values[c.inputs[0]] & mask for c in self._dffs
        }
        return values

    def run(
        self,
        input_sequence: Sequence[Mapping[str, int]],
        n_patterns: int = 1,
        state: Optional[Mapping[str, int]] = None,
        faults: Optional[Mapping[str, tuple]] = None,
    ) -> List[Tuple[int, ...]]:
        """Simulate a full input sequence; returns per-clock PO tuples."""
        if state is not None:
            self.reset(state)
        outputs: List[Tuple[int, ...]] = []
        for inputs in input_sequence:
            values = self.step(inputs, n_patterns, faults=faults)
            outputs.append(tuple(values[o] for o in self.netlist.outputs))
        return outputs


def random_input_sequence(
    netlist: Netlist, n_steps: int, seed: Optional[int] = None
) -> List[Dict[str, int]]:
    """Uniform random per-clock input bits for ``netlist``."""
    rng = random.Random(seed)
    return [
        {pi: rng.randint(0, 1) for pi in netlist.inputs}
        for _ in range(n_steps)
    ]
