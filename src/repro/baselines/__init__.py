"""Comparison baselines: SA partitioning [4], partial scan [2][3], PET [7]."""

from .annealing import anneal_partition
from .partial_scan import (
    PartialScanResult,
    SCAN_MUX_UNITS,
    greedy_mfvs,
    partial_scan_baseline,
    register_dependency_graph,
)
from .pet import PETComparison, compare_pet_ppet

__all__ = [
    "anneal_partition",
    "PartialScanResult",
    "SCAN_MUX_UNITS",
    "greedy_mfvs",
    "partial_scan_baseline",
    "register_dependency_graph",
    "PETComparison",
    "compare_pet_ppet",
]
