"""Initial states for retimed circuits (paper §5, citing Touati/Brayton [16]).

Retiming preserves steady-state behaviour but not the power-up state: the
retimed registers need initial values that make the machine externally
equivalent to the original from clock 0.  Touati/Brayton solve this by
backward justification; here we provide:

* :func:`check_equivalence` — probabilistic black-box equivalence of two
  (netlist, state) pairs under common random stimuli, compared clock by
  clock from clock 0;
* :func:`find_equivalent_initial_state` — exact search over the retimed
  register values for small register counts (exhaustive), falling back to
  random probing; returns the first state passing the equivalence probe.

Forward register moves always admit such a state; backward moves may not
(the paper's remedy is reset circuitry), in which case the search raises.
"""

from __future__ import annotations

import itertools
import random
from typing import Dict, Mapping, Tuple

from ..errors import RetimingError
from ..netlist.netlist import Netlist
from ..sim.seqsim import SequentialSimulator, random_input_sequence

__all__ = ["check_equivalence", "find_equivalent_initial_state"]

#: Register counts up to this are searched exhaustively (``2^R`` probes).
_MAX_EXHAUSTIVE_REGISTERS = 14
#: Random assignments drawn when there are more registers than that.
_RANDOM_PROBES = 256


def check_equivalence(
    original: Netlist,
    original_state: Mapping[str, int],
    retimed: Netlist,
    retimed_state: Mapping[str, int],
    n_steps: int = 12,
    n_sequences: int = 4,
) -> bool:
    """Probe behavioural equivalence under common random input sequences.

    Both netlists must have the same primary inputs.  Primary outputs are
    compared position by position: the i-th output of one netlist
    against the i-th of the other, whatever their names, so the two
    must list them in the same order.  This is a Monte-Carlo check — it
    can accept a wrong state with probability shrinking in
    ``n_steps × n_sequences``, never reject a right one.
    """
    if set(original.inputs) != set(retimed.inputs):
        raise RetimingError("netlists have different primary inputs")
    if n_steps < 1:
        raise RetimingError("n_steps must be positive")
    sim_a = SequentialSimulator(original)
    sim_b = SequentialSimulator(retimed)
    rng = random.Random(0)
    for _ in range(n_sequences):
        seq = random_input_sequence(original, n_steps, seed=rng.randrange(1 << 30))
        trace_a = sim_a.run(seq, state=original_state)
        trace_b = sim_b.run(seq, state=retimed_state)
        if len(trace_a[0]) != len(trace_b[0]):
            raise RetimingError(
                "netlists expose different primary output counts"
            )
        if trace_a != trace_b:
            return False
    return True


def find_equivalent_initial_state(
    original: Netlist,
    retimed: Netlist,
    n_steps: int = 10,
    n_sequences: int = 3,
) -> Dict[str, int]:
    """Search an initial state of ``retimed`` equivalent to the original.

    The original starts from the all-zero state.  Strategy: try all-zero
    first (free reset); then exhaust the ``2^R`` register assignments
    when ``R ≤ 14``; otherwise draw 256 random assignments.  Every
    candidate is screened with :func:`check_equivalence`.

    Returns:
        A register-state dict for ``retimed``.

    Raises:
        RetimingError: no equivalent state found — backward register
            moves crossed unjustifiable logic; add reset circuitry (the
            paper's suggestion) or recompute states per Touati/Brayton.
    """
    regs = sorted(c.output for c in retimed.dff_cells())
    rng = random.Random(0)

    def probe(bits: Tuple[int, ...]) -> bool:
        state = dict(zip(regs, bits))
        return check_equivalence(
            original,
            {},
            retimed,
            state,
            n_steps=n_steps,
            n_sequences=n_sequences,
        )

    zero = tuple(0 for _ in regs)
    if probe(zero):
        return dict(zip(regs, zero))
    if len(regs) <= _MAX_EXHAUSTIVE_REGISTERS:
        for bits in itertools.product((0, 1), repeat=len(regs)):
            if bits == zero:
                continue
            if probe(bits):
                return dict(zip(regs, bits))
    else:
        for _ in range(_RANDOM_PROBES):
            bits = tuple(rng.randint(0, 1) for _ in regs)
            if probe(bits):
                return dict(zip(regs, bits))
    raise RetimingError(
        f"no equivalent initial state found for {retimed.name!r} "
        f"({len(regs)} registers); backward-moved registers need reset "
        f"logic or Touati/Brayton justification"
    )
