"""Assemble concrete CBIT hardware assignments from a partition.

Each cluster of the final partition receives one (cascaded) CBIT spanning
its input nets; the catalogue type is the smallest Table 1 entry covering
the cluster's input count.  The plan records the net ordering so the PPET
session simulator can map LFSR state bits onto circuit signals
deterministically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from ..partition.clusters import Partition
from .types import CBITType, cbit_cost_for_inputs

__all__ = ["CBITAssignment", "CBITPlan", "assemble_cbits"]


@dataclass(frozen=True)
class CBITAssignment:
    """CBIT serving one cluster's inputs."""

    cluster_id: int
    input_nets: Tuple[str, ...]  # bit i of the TPG state drives net i
    types: Tuple[CBITType, ...]  # catalogue types (cascade when > d6)
    cost_dff: float  # Σ p_k for this assignment

    @property
    def width(self) -> int:
        return len(self.input_nets)

    @property
    def testing_time(self) -> int:
        """Exhaustive pattern count for this CUT: 2^width."""
        return 1 << self.width


@dataclass(frozen=True)
class CBITPlan:
    """Full CBIT complement for a partition (Eq. 4's Σ = Σ p_k n_k)."""

    assignments: Tuple[CBITAssignment, ...]
    total_cost_dff: float

    def widest(self) -> int:
        return max((a.width for a in self.assignments), default=0)


def assemble_cbits(partition: Partition) -> CBITPlan:
    """Build the CBIT plan for ``partition``.

    Clusters with no combinational inputs (pure register clusters) get no
    CBIT.  Input nets are ordered deterministically (sorted) so simulation
    runs are reproducible.
    """
    assignments: List[CBITAssignment] = []
    total = 0.0
    for cluster in partition.clusters:
        if cluster.input_count == 0:
            continue
        cost, types = cbit_cost_for_inputs(cluster.input_count)
        assignments.append(
            CBITAssignment(
                cluster_id=cluster.cluster_id,
                input_nets=tuple(sorted(cluster.input_nets)),
                types=tuple(types),
                cost_dff=cost,
            )
        )
        total += cost
    return CBITPlan(assignments=tuple(assignments), total_cost_dff=total)
