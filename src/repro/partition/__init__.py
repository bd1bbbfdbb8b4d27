"""Flow-driven input-constraint partitioning (Tables 4–8 of the paper)."""

from .clusters import Cluster, Partition, cluster_input_count, cluster_input_nets
from .make_set import CutState, make_set, make_set_reference
from .make_group import MakeGroupResult, make_group
from .assign_cbit import (
    AssignCBITResult,
    MergeGain,
    assign_cbit,
    merge_gain,
    merged_input_nets,
)
from .pic import PICViolation, check_pic

__all__ = [
    "Cluster",
    "Partition",
    "cluster_input_count",
    "cluster_input_nets",
    "CutState",
    "make_set",
    "make_set_reference",
    "MakeGroupResult",
    "make_group",
    "AssignCBITResult",
    "MergeGain",
    "assign_cbit",
    "merge_gain",
    "merged_input_nets",
    "PICViolation",
    "check_pic",
]
