"""Pseudo-exhaustive pattern spaces for circuit segments.

A CUT with ``ι`` inputs is tested with **all** ``2^ι`` input combinations
(pseudo-exhaustive testing: exhaustive per segment, far cheaper than
exhaustive over the whole circuit).  Pattern blocks are generated as
parallel words — bit ``t`` of input ``i``'s word is input ``i``'s value
under pattern ``t`` — in either binary counting order or the emission
order of the CBIT's complete LFSR.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

from ..cbit.lfsr import LFSR
from ..errors import SimulationError

__all__ = [
    "exhaustive_words",
    "lfsr_order_words",
    "is_exhaustive",
    "MAX_EXHAUSTIVE_INPUTS",
]

#: Practical cap for in-memory exhaustive blocks (2^22 bits ≈ 512 KiB/signal).
MAX_EXHAUSTIVE_INPUTS = 22


def exhaustive_words(signals: Sequence[str]) -> Tuple[Dict[str, int], int]:
    """All ``2^n`` patterns over ``signals`` in binary counting order.

    Signal ``signals[i]`` toggles with period ``2^(i+1)`` (i.e. it is bit
    ``i`` of the pattern index).

    >>> words, n = exhaustive_words(["a", "b"])
    >>> n, bin(words["a"]), bin(words["b"])
    (4, '0b1010', '0b1100')
    """
    n = len(signals)
    if n > MAX_EXHAUSTIVE_INPUTS:
        raise SimulationError(
            f"{n} inputs exceed the in-memory exhaustive cap "
            f"({MAX_EXHAUSTIVE_INPUTS}); split the segment or sample"
        )
    total = 1 << n
    words: Dict[str, int] = {}
    for i, sig in enumerate(signals):
        period = 1 << (i + 1)
        half = 1 << i
        block = ((1 << half) - 1) << half  # high half of one period
        repeat = ((1 << total) - 1) // ((1 << period) - 1)
        words[sig] = block * repeat
    return words, total


def lfsr_order_words(signals: Sequence[str]) -> Tuple[Dict[str, int], int]:
    """All ``2^n`` patterns in the emission order of a complete LFSR.

    This is the order a width-``n`` CBIT actually drives the CUT with;
    signature computation must use it (MISR signatures are order
    dependent).  Bit ``j`` of each LFSR state drives ``signals[j]``.
    """
    n = len(signals)
    if n < 2:
        # widths 0/1 are degenerate: fall back to counting order
        return exhaustive_words(signals)
    if n > MAX_EXHAUSTIVE_INPUTS:
        raise SimulationError(
            f"{n} inputs exceed the in-memory exhaustive cap "
            f"({MAX_EXHAUSTIVE_INPUTS})"
        )
    lfsr = LFSR(n)
    total = 1 << n
    words = {sig: 0 for sig in signals}
    for t in range(total):
        state = lfsr.step()
        for j, sig in enumerate(signals):
            if (state >> j) & 1:
                words[sig] |= 1 << t
    return words, total


def is_exhaustive(words: Dict[str, int], signals: Sequence[str], n_patterns: int) -> bool:
    """Check that the block enumerates every combination exactly once."""
    if n_patterns != 1 << len(signals):
        return False
    seen = set()
    for t in range(n_patterns):
        key = 0
        for j, sig in enumerate(signals):
            if (words[sig] >> t) & 1:
                key |= 1 << j
        seen.add(key)
    return len(seen) == n_patterns
