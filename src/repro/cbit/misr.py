"""MISR signature compaction.

A CBIT in PSA mode is a multiple-input signature register: each clock,
the LFSR shift is XORed bit-wise with the circuit-under-test response
word, compacting the response stream into an ``n``-bit signature.
"""

from __future__ import annotations

from typing import Iterable, Optional

from ..errors import CBITError
from .polynomials import primitive_polynomial

__all__ = ["MISR"]


class MISR:
    """Multiple-input signature register over a primitive polynomial.

    Galois form: each clock multiplies the state by ``x`` modulo the
    feedback polynomial and XORs the parallel response word in — the
    standard internal-XOR MISR hardware.

    >>> m = MISR(4, seed=0)
    >>> for word in [0b1010, 0b0001, 0b1111]:
    ...     _ = m.absorb(word)
    >>> 0 <= m.signature < 16
    True
    """

    def __init__(self, width: int, poly: Optional[int] = None, seed: int = 0):
        if width < 2:
            raise CBITError(f"MISR width must be >= 2, got {width}")
        self.width = width
        self.poly = poly if poly is not None else primitive_polynomial(width)
        self._mask = (1 << width) - 1
        self._taps = self.poly & self._mask
        self.state = seed & self._mask

    def absorb(self, word: int) -> int:
        """Clock once with response ``word`` on the parallel inputs."""
        top = (self.state >> (self.width - 1)) & 1
        shifted = (self.state << 1) & self._mask
        if top:
            shifted ^= self._taps
        self.state = shifted ^ (word & self._mask)
        return self.state

    def absorb_stream(self, words: Iterable[int]) -> int:
        for w in words:
            self.absorb(w)
        return self.state

    @property
    def signature(self) -> int:
        return self.state

    def reset(self, seed: int = 0) -> None:
        self.state = seed & self._mask
