"""Probabilistic multicommodity-flow saturation (Table 3 of the paper)."""

from .distance import exp_distance, inject_flow, update_distance
from .index import FlowIndex
from .rng import FairSampler
from .saturate import SaturationResult, saturate_network

__all__ = [
    "exp_distance",
    "inject_flow",
    "update_distance",
    "FlowIndex",
    "FairSampler",
    "SaturationResult",
    "saturate_network",
]
