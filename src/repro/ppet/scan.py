"""Scan-chain model for CBIT initialization and signature read-out.

Section 1: "A scan chain links all the test registers for initialization
and signatures read-out."  Hardware-wise the chain threads every CBIT
bit; time-wise a self-test session pays one full shift-in before testing
and one full shift-out after.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from ..cbit.assemble import CBITPlan

__all__ = ["ScanChain", "build_scan_chain"]


@dataclass(frozen=True)
class ScanChain:
    """Ordering of all CBIT bits on the scan chain."""

    segments: Tuple[Tuple[int, int], ...]  # (cluster_id, width) in chain order

    @property
    def length(self) -> int:
        return sum(w for _, w in self.segments)

    @property
    def init_cycles(self) -> int:
        """Clocks to shift in all seeds (one bit per clock)."""
        return self.length

    @property
    def readout_cycles(self) -> int:
        """Clocks to shift out all signatures."""
        return self.length


def build_scan_chain(plan: CBITPlan) -> ScanChain:
    """Thread the plan's CBITs onto one chain in cluster-id order."""
    return ScanChain(
        segments=tuple(
            (a.cluster_id, a.width) for a in plan.assignments
        )
    )
