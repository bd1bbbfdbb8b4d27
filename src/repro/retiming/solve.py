"""Exact cut-net retiming: the legal lags of least emitted area.

Given the cut nets chosen by the partitioner, a covered cut's A_CELL
reuses a retimed functional DFF (0.9 DFF); an uncovered one keeps a
MUXed A_CELL (2.3 DFF, §2.3/§4.2), and every register the retiming
adds costs a DFF.  :func:`solve_cut_retiming`, the one solve the
compile path and every other caller run, returns the legal lags of
least emitted area: 10 units per register after fan-out sharing plus 14
per dropped cut.  :mod:`repro.retiming.registers` holds the LP (the
network-flow dual of retiming, arXiv 1402.2460), its production descent
and its network-simplex twin.  :func:`bellman_ford_constraints` is the
dense difference-constraint solver the tests use as an oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..graphs.digraph import CircuitGraph
from ..graphs.paths import WeightedEdge, register_weighted_edges
from .model import Retiming
from .registers import least_area_lags, least_area_lags_reference

__all__ = [
    "RetimingSolution",
    "solve_cut_retiming",
    "solve_cut_retiming_reference",
    "bellman_ford_constraints",
]


@dataclass
class RetimingSolution:
    """Result of :func:`solve_cut_retiming` or its reference twin.

    ``covered_cuts`` are cut nets the solved retiming *guarantees* a
    register on; ``dropped_cuts`` keep their MUXed A_CELLs, because
    covering them costs more registers than it saves (or no legal
    retiming covers them); ``unconstrained_cuts`` never generated a
    constraint at all (their net heads no register-weighted edge —
    e.g. dangling or mid-via-only nets), so the solver neither covered
    nor dropped them.  ``registers`` is the count of the registers
    ``apply_retiming`` emits under ``retiming`` (shared fan-out chains,
    PO sinks included when the graph has them); ``iterations`` counts
    the descent's steps or the twin's pivots.
    """

    retiming: Retiming
    covered_cuts: Set[str]  # cut nets guaranteed a register (A_CELL at 0.9)
    dropped_cuts: Set[str]  # cut nets needing MUXed A_CELLs (2.3)
    unconstrained_cuts: Set[str]
    registers: int
    iterations: int


def bellman_ford_constraints(
    nodes: Sequence[str],
    constraints: Sequence[Tuple[str, str, int]],
) -> Tuple[Optional[Dict[str, int]], Optional[List[int]]]:
    """Solve ``x_u − x_v ≤ c`` difference constraints.

    Args:
        nodes: all variables.
        constraints: triples ``(u, v, c)`` meaning ``x_u − x_v ≤ c``
            (a constraint-graph edge ``v → u`` of weight ``c``).

    Returns:
        ``(solution, None)`` on feasibility (a minimal-violation-free
        assignment), or ``(None, cycle_constraint_indices)`` where the
        indices identify constraints on one negative cycle.
    """
    dist: Dict[str, int] = {n: 0 for n in nodes}
    pred: Dict[str, Optional[int]] = {n: None for n in nodes}  # constraint idx
    n = len(nodes)
    updated_node: Optional[str] = None
    for it in range(n):
        updated_node = None
        for idx, (u, v, c) in enumerate(constraints):
            if dist[v] + c < dist[u]:
                dist[u] = dist[v] + c
                pred[u] = idx
                updated_node = u
        if updated_node is None:
            return dist, None
    # negative cycle: walk predecessors n times to land on the cycle
    node = updated_node
    for _ in range(n):
        idx = pred[node]
        assert idx is not None
        node = constraints[idx][1]
    cycle: List[int] = []
    start = node
    while True:
        idx = pred[node]
        assert idx is not None
        cycle.append(idx)
        node = constraints[idx][1]
        if node == start:
            break
    return None, cycle


def _io_names(graph: CircuitGraph, names: Sequence[str]) -> List[str]:
    """The nodes ``pin_io`` ties to one Leiserson–Saxe host lag: every
    primary input and virtual PO sink among ``names``."""
    from ..graphs.build import is_po_node
    from ..graphs.digraph import NodeKind

    return [
        name
        for name in names
        if is_po_node(name)
        or (graph.has_node(name) and graph.kind(name) is NodeKind.INPUT)
    ]


def solve_cut_retiming(
    graph: CircuitGraph,
    cut_nets: Iterable[str],
    edges: Optional[Sequence[WeightedEdge]] = None,
    pin_io: bool = False,
) -> RetimingSolution:
    """The legal retiming of least emitted area.

    One exact solve (:func:`~repro.retiming.registers.least_area_lags`):
    10 units per register ``apply_retiming`` emits plus 14 per dropped
    cut net, minimised over legal lags.

    Args:
        graph: the circuit graph (used to collapse registers into edge
            weights unless ``edges`` is given).
        cut_nets: nets that should carry a register after retiming.
        edges: precomputed register-weighted edges (performance hook).
        pin_io: force every primary input and virtual PO sink to share one
            lag (the Leiserson–Saxe host condition), so the retimed
            circuit is cycle-accurate I/O equivalent to the original.
            The paper's accounting leaves this off — it accepts latency
            shifts on input/output paths (Eq. 1 "registers can be added
            arbitrarily").

    Returns:
        The greatest such lags ≤ 0: legal and honouring ``pin_io``.
        The covered, dropped and unconstrained sets are read off their
        weights, ``registers`` holds the count ``apply_retiming`` emits
        and ``iterations`` the descent's steps.  A cut stays dropped
        where the registers that would cover it cost more than the 14
        units it saves.

    Raises:
        RetimingError: an edge has a negative weight.
    """
    return _least_area(graph, cut_nets, edges, pin_io, least_area_lags)


def solve_cut_retiming_reference(
    graph: CircuitGraph,
    cut_nets: Iterable[str],
    edges: Optional[Sequence[WeightedEdge]] = None,
    pin_io: bool = False,
) -> RetimingSolution:
    """Reference twin of :func:`solve_cut_retiming`.

    Solves the same LP by network simplex on its dual
    (:func:`~repro.retiming.registers.least_area_lags_reference`).
    Lags, ``registers`` and the covered, dropped and unconstrained sets
    are bit-identical to the production solver; ``iterations`` counts
    pivots instead of steps.
    """
    return _least_area(
        graph, cut_nets, edges, pin_io, least_area_lags_reference
    )


def _least_area(
    graph: CircuitGraph,
    cut_nets: Iterable[str],
    edges: Optional[Sequence[WeightedEdge]],
    pin_io: bool,
    kernel: Callable[..., Tuple[Dict[str, int], int, int]],
) -> RetimingSolution:
    if edges is None:
        edges = register_weighted_edges(graph)
    cut_set = set(cut_nets)
    io_names = None
    if pin_io:
        names = sorted({e.tail for e in edges} | {e.head for e in edges})
        io_names = _io_names(graph, names)
    rho, registers, steps = kernel(edges, cut_set, io_names)
    retiming = Retiming(edges=tuple(edges), rho=rho)
    retiming.assert_legal()
    requirements = [e for e in edges if e.via_nets[0] in cut_set]
    dropped = {e.via_nets[0] for e in requirements if retiming.weight(e) < 1}
    covered = {e.via_nets[0] for e in requirements} - dropped
    return RetimingSolution(
        retiming=retiming,
        covered_cuts=covered,
        dropped_cuts=dropped,
        iterations=steps,
        unconstrained_cuts=cut_set - covered - dropped,
        registers=registers,
    )
