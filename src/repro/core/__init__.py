"""Merced top level: the compiler, cost accounting, reports, CLI."""

from .cost import CBITAreaComparison, compare_cbit_area, count_retimable_cuts
from .merced import CompilationArtifacts, Merced, compile_circuit
from .report import (
    format_table,
    render_seed_stability,
    render_sweep_beta,
    render_sweep_lk,
    render_table10_11,
)
from .result import MercedReport, PartitionRow
from .sweep import (
    BetaSweepRow,
    LkSweepRow,
    SeedStability,
    SweepErrorRow,
    seed_stability,
    sweep_beta,
    sweep_lk,
)

__all__ = [
    "CBITAreaComparison",
    "compare_cbit_area",
    "count_retimable_cuts",
    "CompilationArtifacts",
    "Merced",
    "compile_circuit",
    "format_table",
    "render_seed_stability",
    "render_sweep_beta",
    "render_sweep_lk",
    "render_table10_11",
    "MercedReport",
    "PartitionRow",
    "BetaSweepRow",
    "LkSweepRow",
    "SeedStability",
    "SweepErrorRow",
    "seed_stability",
    "sweep_beta",
    "sweep_lk",
]
