"""Deterministic random source selection for ``Saturate_Network``.

Table 3's STEP 3.1 "randomly pick a node" with the fairness requirement
that every node reach ``min_visit`` visits.  :class:`FairSampler` draws
uniformly from the nodes that are still below the threshold, which keeps
the sampling equi-probable (the paper's stated goal) while guaranteeing
termination in ``min_visit × |V|`` draws instead of the unbounded
coupon-collector tail of naive uniform sampling.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence

__all__ = ["FairSampler"]


class FairSampler:
    """Uniform sampling over nodes that still owe visits.

    Example:
        >>> s = FairSampler(["a", "b"], min_visit=2, seed=0)
        >>> picks = [s.pick() for _ in range(4)]
        >>> s.exhausted
        True
        >>> sorted(picks).count("a")
        2
    """

    def __init__(
        self,
        nodes: Sequence[str],
        min_visit: int,
        seed: Optional[int] = None,
    ):
        if min_visit < 1:
            raise ValueError("min_visit must be >= 1")
        self._rng = random.Random(seed)
        self._min_visit = min_visit
        self.visit: Dict[str, int] = {n: 0 for n in nodes}
        self._pending: List[str] = list(nodes)

    @property
    def exhausted(self) -> bool:
        """True once every node has reached ``min_visit`` visits."""
        return not self._pending

    def pick(self) -> str:
        """Draw one node still below the visit threshold and count the visit."""
        if not self._pending:
            raise RuntimeError("all nodes already visited min_visit times")
        idx = self._rng.randrange(len(self._pending))
        node = self._pending[idx]
        self.visit[node] += 1
        if self.visit[node] >= self._min_visit:
            last = self._pending.pop()
            if idx < len(self._pending):
                self._pending[idx] = last
        return node

    def __iter__(self):
        while not self.exhausted:
            yield self.pick()
