"""Retiming algebra — Lemma 1 and Corollaries 2/3 of the paper (§2.2).

A retiming is an integer vertex labelling ``ρ`` of the *non-register*
nodes (combinational cells, primary inputs, primary outputs).  In the
Leiserson–Saxe register-weighted view (see
:func:`repro.graphs.paths.register_weighted_edges`) every edge ``u → v``
carries ``w(e)`` registers, and after retiming

    ``w_ρ(e) = w(e) + ρ(v) − ρ(u)``            (Lemma 1, per edge)

which telescopes to ``f_ρ(p) = f(p) + ρ(v_n) − ρ(v_0)`` on paths and to
``f_ρ(p) = f(p)`` on cycles (Corollary 2).  A retiming is *legal* iff
every edge keeps a non-negative register count (Corollary 3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

from ..errors import RetimingError
from ..graphs.paths import WeightedEdge

__all__ = [
    "Retiming",
    "retimed_weight",
    "retimed_path_registers",
    "illegal_edges",
]


def retimed_weight(edge: WeightedEdge, rho: Mapping[str, int]) -> int:
    """``w_ρ(e) = w(e) + ρ(head) − ρ(tail)`` (Lemma 1)."""
    return edge.weight + rho.get(edge.head, 0) - rho.get(edge.tail, 0)


def retimed_path_registers(
    path: Sequence[WeightedEdge], rho: Mapping[str, int]
) -> int:
    """Register count of an edge path after retiming.

    Telescopes to ``f(p) + ρ(v_n) − ρ(v_0)``; for a closed path the value
    equals the original count regardless of ``ρ`` (Corollary 2).
    """
    for a, b in zip(path, path[1:]):
        if a.head != b.tail:
            raise RetimingError(
                f"edges do not chain: {a.head!r} != {b.tail!r}"
            )
    return sum(retimed_weight(e, rho) for e in path)


def illegal_edges(
    edges: Iterable[WeightedEdge], rho: Mapping[str, int]
) -> List[WeightedEdge]:
    """Edges whose retimed register count would go negative (Eq. 3)."""
    return [e for e in edges if retimed_weight(e, rho) < 0]


@dataclass
class Retiming:
    """A retiming vector bound to a fixed register-weighted edge list."""

    edges: Tuple[WeightedEdge, ...]
    rho: Dict[str, int] = field(default_factory=dict)

    def weight(self, edge: WeightedEdge) -> int:
        return retimed_weight(edge, self.rho)

    def assert_legal(self) -> None:
        bad = illegal_edges(self.edges, self.rho)
        if bad:
            e = bad[0]
            raise RetimingError(
                f"illegal retiming: edge {e.tail}->{e.head} would hold "
                f"{retimed_weight(e, self.rho)} registers "
                f"({len(bad)} violating edge(s) total)"
            )

    def shared_registers(self) -> int:
        """Registers after fan-out sharing, as ``apply_retiming`` emits
        them: one chain per driver, as long as its longest retimed edge."""
        longest: Dict[str, int] = {}
        for e in self.edges:
            w = self.weight(e)
            if w > longest.get(e.tail, 0):
                longest[e.tail] = w
        return sum(longest.values())

    def shifted(self, delta: int) -> "Retiming":
        """Uniformly shifting ρ over *all* nodes leaves edge weights unchanged."""
        nodes = {e.tail for e in self.edges} | {e.head for e in self.edges}
        return Retiming(
            edges=self.edges,
            rho={n: self.rho.get(n, 0) + delta for n in nodes},
        )
