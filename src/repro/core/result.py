"""Result records of a Merced compilation run."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..cbit.assemble import CBITPlan
from ..config import MercedConfig
from ..netlist.netlist import CircuitStats
from ..partition.clusters import Partition
from .cost import CBITAreaComparison

__all__ = ["PartitionRow", "MercedReport"]


@dataclass(frozen=True)
class PartitionRow:
    """One row of the paper's Tables 10/11."""

    circuit: str
    n_dffs: int
    n_dffs_on_scc: int
    n_cut_nets_on_scc: int
    n_cut_nets: int
    cpu_seconds: float

    def as_tuple(self) -> Tuple[str, int, int, int, int, float]:
        return (
            self.circuit,
            self.n_dffs,
            self.n_dffs_on_scc,
            self.n_cut_nets_on_scc,
            self.n_cut_nets,
            self.cpu_seconds,
        )


@dataclass
class MercedReport:
    """Everything STEP 4 of Table 2 returns: partition ``P`` and cost."""

    circuit_stats: CircuitStats
    config: MercedConfig
    partition: Partition
    plan: CBITPlan
    area: CBITAreaComparison
    row: PartitionRow
    n_merges: int
    n_splits: int
    saturation_sources: int
    #: refinement summary (``OptimizeResult.stats()``) when the run was
    #: compiled with ``config.optimize``; ``None`` otherwise, keeping
    #: the payload shape of non-optimized runs unchanged.
    optimize: Optional[Dict[str, object]] = None

    @property
    def n_partitions(self) -> int:
        return self.partition.m

    @property
    def cost_dff(self) -> float:
        """Σ = Σ p_k n_k (Eq. 4) of the returned partition's CBIT plan."""
        return self.plan.total_cost_dff

    def render(self) -> str:
        s = self.circuit_stats
        a = self.area
        lines = [
            f"Merced report for {s.name} (l_k={self.config.lk}, "
            f"β={self.config.beta})",
            f"  circuit: {s.n_inputs} PI, {s.n_dffs} DFF, {s.n_gates} gates, "
            f"{s.n_inverters} INV, area {s.area_units} units",
            f"  partition: {self.n_partitions} CBIT partitions, "
            f"max ι={self.partition.max_input_count()}, "
            f"{self.n_merges} merges, {self.n_splits} splits",
            f"  cut nets: {a.n_cut_nets} ({a.n_cut_nets_on_scc} on SCCs, "
            f"{a.n_retimable} retimable)",
            f"  CBIT catalogue cost Σ: {self.cost_dff:.2f} DFF equivalents",
        ]
        if self.optimize is not None:
            o = self.optimize
            lines.append(
                f"  optimize ({o['method']}): "
                f"Σ {o['sigma_before']} → {o['sigma_after']}, "
                f"cuts {o['cuts_before']} → {o['cuts_after']}, "
                f"uncovered {o['uncovered_before']} → "
                f"{o['uncovered_after']} "
                f"({o['n_accepted']}/{o['n_proposed']} moves kept)"
            )
        lines += [
            f"  A_CBIT/A_Total: {a.pct_with_retiming:.1f}% with retiming, "
            f"{a.pct_without_retiming:.1f}% without "
            f"({a.saving_points:.1f} points saved, "
            f"{a.relative_area_reduction:.1f}% relative)",
            f"  CPU: {self.row.cpu_seconds:.2f}s "
            f"({self.saturation_sources} flow sources)",
        ]
        return "\n".join(lines)
