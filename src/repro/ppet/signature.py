"""Signature compaction of CUT responses (parallel signature analysis).

The observing CBIT folds each clock's response word into a MISR; at the
end of the pseudo-exhaustive run the register holds the test signature.
A fault is detected iff its signature differs from the fault-free one;
aliasing (faulty responses compacting to the golden signature) occurs
with probability ≈ ``2^-width`` and is measured explicitly here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping, Optional, Sequence

from ..cbit.misr import MISR
from ..errors import CBITError

__all__ = ["response_words_to_stream", "compact_signature", "SignatureVerdict"]


def response_words_to_stream(
    values: Mapping[str, int], observe: Sequence[str], n_patterns: int
) -> List[int]:
    """Transpose parallel signal words into per-clock response words.

    Clock ``t``'s response packs ``observe[j]`` into bit ``j``.
    """
    streams = [values[o] for o in observe]
    out: List[int] = []
    for t in range(n_patterns):
        word = 0
        for j, s in enumerate(streams):
            if (s >> t) & 1:
                word |= 1 << j
        out.append(word)
    return out


def compact_signature(
    values: Mapping[str, int],
    observe: Sequence[str],
    n_patterns: int,
    width: Optional[int] = None,
) -> int:
    """MISR signature of a simulated response block.

    Args:
        values: signal → parallel word (a simulator result).
        observe: observed signals, mapped onto MISR inputs in order.
        n_patterns: clocks in the block.
        width: MISR width; defaults to ``max(2, len(observe))``.  Wider
            responses than the MISR fold around (XOR into lower bits), as
            cascaded hardware would.

    Returns:
        The signature (an integer below ``2^width``).
    """
    if not observe:
        raise CBITError("cannot compact an empty observation set")
    width = width or max(2, len(observe))
    misr = MISR(width)
    mask = (1 << width) - 1
    for word in response_words_to_stream(values, observe, n_patterns):
        folded = 0
        while word:
            folded ^= word & mask
            word >>= width
        misr.absorb(folded)
    return misr.signature


@dataclass(frozen=True)
class SignatureVerdict:
    """Comparison of a faulty signature against the golden one."""

    golden: int
    faulty: int
    responses_differ: bool  # raw response streams differed

    @property
    def detected(self) -> bool:
        return self.faulty != self.golden

    @property
    def aliased(self) -> bool:
        """Responses differed but compacted to the same signature."""
        return self.responses_differ and not self.detected
