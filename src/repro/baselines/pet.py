"""Conventional (non-pipelined) pseudo-exhaustive testing baseline.

Reference [7] of the paper (Wu, AT&T 1991): the circuit is partitioned
into segments, but segments are tested **one at a time** from a shared
pattern source — no concurrent pipelining.  Testing time is therefore the
*sum* of the segments' exhaustive spaces instead of PPET's
pipes-of-the-widest.  The paper's conclusion notes that partitioning with
retiming helps conventional PET too; this module quantifies both the time
gap (PET vs PPET) and the shared-hardware discount PET enjoys.
"""

from __future__ import annotations

from dataclasses import dataclass
from ..cbit.assemble import CBITPlan
from ..cbit.types import cbit_cost_for_inputs
from ..partition.clusters import Partition
from ..ppet.schedule import schedule_pipes

__all__ = ["PETComparison", "compare_pet_ppet"]


@dataclass(frozen=True)
class PETComparison:
    """Sequential PET vs pipelined PPET on the same partition."""

    circuit: str
    n_segments: int
    pet_cycles: int  # Σ 2^ι over segments (sequential)
    ppet_cycles: int  # Σ per pipe of 2^(widest active CBIT)
    pet_tpg_cost_dff: float  # one shared generator sized for the widest CUT
    ppet_cbit_cost_dff: float  # Σ p_k n_k over all CBITs

    @property
    def speedup(self) -> float:
        """How much faster PPET finishes than sequential PET."""
        return self.pet_cycles / self.ppet_cycles if self.ppet_cycles else 1.0


def compare_pet_ppet(partition: Partition, plan: CBITPlan) -> PETComparison:
    """Build the PET-vs-PPET time/hardware comparison for one partition.

    The PET side reuses the same segments (the paper's point: the
    partitioner is useful to both methodologies) but owns a single
    generator/compactor pair sized for the widest segment, applied to the
    segments one after another.
    """
    schedule = schedule_pipes(partition, plan)
    pet_cycles = sum(a.testing_time for a in plan.assignments)
    widest = plan.widest()
    shared_cost, _ = cbit_cost_for_inputs(widest)
    return PETComparison(
        circuit=partition.graph.name,
        n_segments=len(plan.assignments),
        pet_cycles=pet_cycles,
        ppet_cycles=schedule.test_cycles,
        pet_tpg_cost_dff=2 * shared_cost,  # generator + compactor
        ppet_cbit_cost_dff=plan.total_cost_dff,
    )
