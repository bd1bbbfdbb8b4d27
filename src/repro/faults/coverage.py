"""Fault-coverage aggregation and reporting."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Set, Tuple

from .model import StuckAtFault

__all__ = ["CoverageReport"]


@dataclass
class CoverageReport:
    """Coverage rollup, optionally per test segment (CUT)."""

    detected: Set[StuckAtFault] = field(default_factory=set)
    total: Set[StuckAtFault] = field(default_factory=set)
    per_segment: Dict[int, Tuple[int, int]] = field(default_factory=dict)
    # segment id -> (detected, total)

    @property
    def coverage(self) -> float:
        return len(self.detected) / len(self.total) if self.total else 1.0

    @property
    def undetected(self) -> Set[StuckAtFault]:
        return self.total - self.detected

    def add_segment(
        self,
        segment_id: int,
        detected: Iterable[StuckAtFault],
        total: Iterable[StuckAtFault],
    ) -> None:
        detected, total = set(detected), set(total)
        self.detected |= detected
        self.total |= total
        self.per_segment[segment_id] = (len(detected), len(total))

    def render(self) -> str:
        lines = [
            f"fault coverage: {len(self.detected)}/{len(self.total)}"
            f" = {100 * self.coverage:.2f}%"
        ]
        for seg, (d, t) in sorted(self.per_segment.items()):
            pct = 100 * d / t if t else 100.0
            lines.append(f"  segment {seg:>4}: {d:>6}/{t:<6} = {pct:6.2f}%")
        return "\n".join(lines)

