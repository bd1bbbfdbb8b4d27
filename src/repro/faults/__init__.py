"""Stuck-at fault substrate: model, collapsing, coverage, SCOAP."""

from .model import StuckAtFault, fault_masks, full_fault_list
from .collapse import CollapseResult, collapse_faults
from .coverage import CoverageReport
from .scoap import ScoapNumbers, compute_scoap

__all__ = [
    "StuckAtFault",
    "fault_masks",
    "full_fault_list",
    "CollapseResult",
    "collapse_faults",
    "CoverageReport",
    "ScoapNumbers",
    "compute_scoap",
]
