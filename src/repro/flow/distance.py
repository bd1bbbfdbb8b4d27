"""The congestion distance function ``d(e) = exp(α · flow(e) / cap(e))``.

Table 3, STEP 3.3.2.  The exponential maps accumulated random flow into an
edge length, so subsequent Dijkstra runs *avoid* congested nets; nets that
stay congested despite the avoidance pressure are structurally central —
exactly the nets the paper cuts first (highest ``d``).  Every net has the
same capacity ``cap(e) = b`` (``MercedConfig.cap``).

:func:`update_distance` and :func:`inject_flow` are the string-keyed
references for :meth:`repro.flow.index.FlowIndex.inject`: they work on
name-keyed ``flow``/``dist`` dicts their caller owns.
"""

from __future__ import annotations

import math
import sys
from typing import Dict

__all__ = ["exp_distance", "update_distance", "inject_flow"]


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


def update_distance(
    flow: Dict[str, float],
    dist: Dict[str, float],
    net: str,
    alpha: float,
    cap: float,
) -> float:
    """Recompute and store ``dist[net]`` from ``flow[net]``; returns it."""
    dist[net] = exp_distance(alpha * flow[net] / cap)
    return dist[net]


def inject_flow(
    flow: Dict[str, float],
    dist: Dict[str, float],
    net: str,
    delta: float,
    alpha: float,
    cap: float,
) -> None:
    """STEP 3.3: add ``Δ`` of flow to ``net`` and refresh its distance."""
    flow[net] += delta
    update_distance(flow, dist, net, alpha, cap)
