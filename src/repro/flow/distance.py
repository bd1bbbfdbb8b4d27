"""The congestion distance function ``d(e) = exp(α · flow(e) / cap(e))``.

Table 3, STEP 3.3.2.  The exponential maps accumulated random flow into an
edge length, so subsequent Dijkstra runs *avoid* congested nets; nets that
stay congested despite the avoidance pressure are structurally central —
exactly the nets the paper cuts first (highest ``d``).
"""

from __future__ import annotations

import math
import sys
from typing import List

from ..graphs.digraph import CircuitGraph, Net

__all__ = ["exp_distance", "update_distance", "distance_levels", "inject_flow"]


def exp_distance(exponent: float) -> float:
    """``d(e) = exp(exponent)``, saturating at the largest finite float.

    Past about 709.78 the exponential leaves the double range, which
    long saturations reach at the paper's default parameters on a net
    that nearly every shortest-path tree crosses.  Such a net gets
    ``sys.float_info.max``, not ``inf``: ``Make_Group``'s first grouping
    uses the boundary ``inf`` to cut nothing, and an ``inf`` distance
    would be cut there.

    >>> import math, sys
    >>> exp_distance(0.08) == math.exp(0.08)
    True
    >>> exp_distance(1000.0) == sys.float_info.max
    True
    """
    try:
        return math.exp(exponent)
    except OverflowError:
        return sys.float_info.max


def update_distance(net: Net, alpha: float) -> float:
    """Recompute and store ``d(e)`` for one net; returns the new value."""
    net.dist = exp_distance(alpha * net.flow / net.cap)
    return net.dist


def inject_flow(net: Net, delta: float, alpha: float) -> None:
    """STEP 3.3: add ``Δ`` of flow to ``net`` and refresh its distance."""
    net.flow += delta
    update_distance(net, alpha)


def distance_levels(graph: CircuitGraph) -> List[float]:
    """Distinct ``d(e)`` values, sorted from max to min (Table 4, STEP 3).

    These are the candidate *boundary* values the clustering loop walks
    down; the paper calls this the "sorted stack of all different values of
    d(E)".
    """
    return sorted({net.dist for net in graph.nets()}, reverse=True)
