"""Exact cut-net retiming: the least emitted area, and maximum coverage.

Given the cut nets chosen by the partitioner, a covered cut's A_CELL
reuses a retimed functional DFF (0.9 DFF); an uncovered one keeps a
MUXed A_CELL (2.3 DFF, §2.3/§4.2), and every register the retiming
adds costs a DFF.  :func:`solve_cut_retiming`, which the compile path
runs, returns the legal lags of least emitted area: 10 units per
register after fan-out sharing plus 14 per dropped cut
(:mod:`repro.retiming.registers`).  :func:`max_coverage_retiming` is the
coverage step described below: a legal retiming that leaves **at least
one register on as many cut nets as possible**, whatever the registers
cost.  Callers that read only the covered/dropped split (the refiners,
the fuzz fingerprint, the trend bench) use it.

**Formulation.**  With ``w_ρ(e) = w(e) + ρ(head) − ρ(tail)`` (Lemma 1),
legality is the difference constraint ``ρ(tail) − ρ(head) ≤ w(e)`` on
every register-weighted edge.  Every requirement edge of a cut net ``N``
(an edge whose first via net is ``N``) has ``N``'s driver ``u_N`` as its
tail.  Give ``N`` one slack variable ``y_N``, shared by all of them, and

    maximise  Σ_N (y_N − ρ(u_N))
    s.t.      y_N − ρ(head_i) ≤ w_i − 1   on each requirement edge i of N
              y_N − ρ(u_N)    ≤ 0

Under a legal ρ each term is 0 when ``N`` is covered and −1 otherwise,
so the optimum is minus the fewest nets any legal retiming must drop.
Every constraint ``x_a − x_b ≤ c`` is an arc ``b → a`` of cost ``c``,
so the LP's dual is a min-cost flow (the network-flow dual of retiming,
arXiv 1402.2460): one unit from each ``u_N`` to its ``y_N`` over
uncapacitated arcs.  A network matrix is totally unimodular, so the LP
has an integral optimum and the solve is exact.

**Algorithm.**  Start with every unit on its direct arc ``u_N → y_N``
(cost 0, every cut covered) and cancel negative cycles.  Each round runs
one SPFA from the all-zero start over the residual network, queueing
the nodes in DFS reverse postorder; a walk of the predecessor graph
every ``n`` relaxations finds a negative cycle exactly (any cycle in
that graph is negative, and a negative cycle eventually leaves one
there for good).  Pushing one unit around the cycle lowers the cost by
at least 1, so there are at most (optimal drops + 1) rounds.  The last
round's distances are ρ: the greatest all-zero-start fixed point of
the optimal dual set, which is the same set for every optimal flow — so
ρ and the covered/dropped split do not depend on which cycles were
cancelled.

While a net's unit sits on its direct arc, ``y_N`` and ``u_N`` form a
zero-cost 2-cycle, so the solver folds ``y_N`` into ``u_N`` (the net's
requirement arcs end at ``u_N``).  The first round is then the plain
"every requirement enforced" feasibility check.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
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

from ..errors import RetimingError
from ..graphs.digraph import CircuitGraph
from ..graphs.paths import WeightedEdge, register_weighted_edges
from ..perf import count as perf_count
from .model import Retiming
from .registers import least_area_lags, least_area_lags_reference

__all__ = [
    "RetimingSolution",
    "max_coverage_retiming",
    "max_coverage_retiming_reference",
    "solve_cut_retiming",
    "solve_cut_retiming_reference",
    "bellman_ford_constraints",
]


@dataclass
class RetimingSolution:
    """Result of :func:`solve_cut_retiming` or :func:`max_coverage_retiming`.

    ``covered_cuts`` are cut nets the solved retiming *guarantees* a
    register on; ``dropped_cuts`` keep their MUXed A_CELLs, because no
    legal retiming covers them (the coverage step) or covering them
    costs more registers than it saves (the area solve);
    ``unconstrained_cuts`` never generated a constraint at all (their
    net heads no register-weighted edge — e.g. dangling or mid-via-only
    nets), so the solver neither covered nor dropped them.
    ``iterations`` counts the coverage step's cycle-search rounds, the
    area solve's descent steps or its twin's pivots.  ``registers`` is
    the area solve's count of the registers ``apply_retiming`` emits
    under ``retiming`` (shared fan-out chains, PO sinks included when
    the graph has them); the coverage step leaves it ``None``.
    """

    retiming: Retiming
    covered_cuts: Set[str]  # cut nets guaranteed a register (A_CELL at 0.9)
    dropped_cuts: Set[str]  # cut nets needing MUXed A_CELLs (2.3)
    iterations: int
    unconstrained_cuts: Set[str] = field(default_factory=set)
    registers: Optional[int] = None

    @property
    def coverage(self) -> float:
        """Fraction of *constrained* cuts the retiming covers."""
        total = len(self.covered_cuts) + len(self.dropped_cuts)
        return len(self.covered_cuts) / total if total else 1.0


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


@dataclass
class _Network:
    """The retiming LP as arcs ``src → dst``: ``x[dst] − x[src] ≤ cost``.

    Variables ``0 .. len(names)−1`` are ρ (``names`` lists the circuit
    nodes), then the pin_io host when there is one, then one ``y_N``
    per constrained cut net, ``y_N = n_rho + j`` for ``nets[j]``.
    """

    names: List[str]
    n_rho: int
    src: List[int]
    dst: List[int]
    cost: List[int]
    nets: List[str]  # constrained cut nets
    driver: List[int]  # u_N per net
    req: List[List[int]]  # requirement arcs head_i → y_N per net
    direct: List[int]  # the arc u_N → y_N per net

    @property
    def n_vars(self) -> int:
        return self.n_rho + len(self.nets)


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


def _network(
    graph: CircuitGraph,
    cut_set: Set[str],
    edges: Sequence[WeightedEdge],
    pin_io: bool,
) -> _Network:
    names = sorted({e.tail for e in edges} | {e.head for e in edges})
    index = {name: i for i, name in enumerate(names)}
    src: List[int] = []
    dst: List[int] = []
    cost: List[int] = []

    def arc(b: int, a: int, c: int) -> int:
        src.append(b)
        dst.append(a)
        cost.append(c)
        return len(cost) - 1

    for e in edges:  # legality: ρ(tail) − ρ(head) ≤ w(e)
        arc(index[e.head], index[e.tail], e.weight)
    n_rho = len(names)
    if pin_io:
        host = n_rho
        n_rho += 1
        for name in _io_names(graph, names):
            arc(host, index[name], 0)
            arc(index[name], host, 0)
    by_net: Dict[str, List[int]] = {}
    for i, e in enumerate(edges):
        if e.via_nets[0] in cut_set:
            by_net.setdefault(e.via_nets[0], []).append(i)
    nets = sorted(by_net)
    driver: List[int] = []
    req: List[List[int]] = []
    direct: List[int] = []
    for j, net in enumerate(nets):
        y = n_rho + j
        ids = by_net[net]
        driver.append(index[edges[ids[0]].tail])
        req.append(
            [arc(index[edges[i].head], y, edges[i].weight - 1) for i in ids]
        )
        direct.append(arc(driver[j], y, 0))
    return _Network(names, n_rho, src, dst, cost, nets, driver, req, direct)


def _reverse_postorder(
    n: int, out: List[List[int]], r_dst: List[int]
) -> List[int]:
    """DFS reverse postorder: every arc off a cycle points forward."""
    seen = bytearray(n)
    post: List[int] = []
    for s in range(n):
        if seen[s]:
            continue
        seen[s] = 1
        stack = [(s, iter(out[s]))]
        while stack:
            v, arcs = stack[-1]
            for r in arcs:
                u = r_dst[r]
                if not seen[u]:
                    seen[u] = 1
                    stack.append((u, iter(out[u])))
                    break
            else:
                stack.pop()
                post.append(v)
    post.reverse()
    return post


def _spfa(
    n: int,
    out: List[List[int]],
    r_src: List[int],
    r_dst: List[int],
    r_cost: List[int],
    order: List[int],
) -> Tuple[Optional[List[int]], Optional[List[int]], int]:
    """Queue-based shortest paths from the all-zero start.

    ``out[v]`` lists the residual arcs leaving ``v``; the queue starts
    with every node, in ``order``.  Returns
    ``(dist, None, relaxations)`` at the fixed point — the greatest one
    below zero, whatever the relaxation order — or ``(None, cycle,
    relaxations)`` with the arcs of a negative cycle.  Every ``n``
    relaxations the predecessor graph is searched for a cycle: any cycle
    there is negative, and while a negative cycle is reachable the
    distances fall without bound, which eventually keeps one there.
    """
    dist = [0] * n
    pred = [-1] * n
    inq = bytearray(b"\x01") * n
    queue = deque(order)
    relaxations = 0
    next_walk = n
    while queue:
        v = queue.popleft()
        inq[v] = 0
        dv = dist[v]
        for r in out[v]:
            u = r_dst[r]
            nd = dv + r_cost[r]
            if nd < dist[u]:
                dist[u] = nd
                pred[u] = r
                relaxations += 1
                if not inq[u]:
                    inq[u] = 1
                    queue.append(u)
        if relaxations >= next_walk:
            next_walk = relaxations + n
            cycle = _pred_cycle(pred, r_src)
            if cycle is not None:
                return None, cycle, relaxations
    return dist, None, relaxations


def _pred_cycle(pred: List[int], r_src: List[int]) -> Optional[List[int]]:
    """Arcs of a cycle in the predecessor graph, or ``None``."""
    stamp = [0] * len(pred)
    for s in range(len(pred)):
        v = s
        while not stamp[v]:
            stamp[v] = s + 1
            r = pred[v]
            if r < 0:
                break
            v = r_src[r]
        else:
            if stamp[v] == s + 1:  # this walk closed on itself
                cycle = []
                x = v
                while True:
                    r = pred[x]
                    cycle.append(r)
                    x = r_src[r]
                    if x == v:
                        return cycle
    return None


def _cancel_cycles(net: _Network) -> Tuple[List[int], int, int]:
    """Production cycle cancelling: SPFA rounds over a folded residual.

    Residual arc ``2a`` is arc ``a`` forward, ``2a + 1`` its reverse
    (present while ``a`` carries flow).  A folded net's requirement arcs
    end at its driver and its direct arc is implicit: its one unit of
    flow is on it.  Returns ``(dist, rounds, relaxations)``.
    """
    src, dst, cost = net.src, net.dst, net.cost
    m = len(cost)
    r_src = [0] * (2 * m)
    r_src[0::2] = src
    r_src[1::2] = dst
    r_dst = [0] * (2 * m)
    r_dst[0::2] = dst
    r_dst[1::2] = src
    r_cost = [0] * (2 * m)
    r_cost[0::2] = cost
    r_cost[1::2] = [-c for c in cost]
    owner = [-1] * m  # net of a requirement or direct arc
    for j, arcs in enumerate(net.req):
        owner[net.direct[j]] = j
        for a in arcs:
            owner[a] = j
            r_dst[2 * a] = net.driver[j]
    out: List[List[int]] = [[] for _ in range(net.n_vars)]
    direct = set(net.direct)
    for a in range(m):
        if a not in direct:
            out[src[a]].append(2 * a)
    folded = [True] * len(net.nets)
    flow = [0] * m
    # queued in this order, the first sweep settles the acyclic part of
    # the network (the combinational logic) in one pass; name order
    # took 380× more relaxations on a 50k-gate corpus circuit
    order = _reverse_postorder(net.n_vars, out, r_dst)
    rounds = 0
    relaxations = 0
    while True:
        rounds = _next_round(rounds, net)
        dist, cycle, relaxed = _spfa(
            net.n_vars, out, r_src, r_dst, r_cost, order
        )
        relaxations += relaxed
        if cycle is None:
            return dist, rounds, relaxations
        for r in cycle:
            a = r >> 1
            j = owner[a]
            if r & 1:
                flow[a] -= 1
                if not flow[a]:
                    out[dst[a]].remove(r)
                continue
            if j >= 0 and a == net.direct[j]:  # the unit returns: fold
                folded[j] = True
                out[src[a]].remove(r)
                for b in net.req[j]:
                    r_dst[2 * b] = net.driver[j]
                continue
            if not flow[a]:
                out[dst[a]].append(r + 1)
            flow[a] += 1
            if j >= 0 and folded[j]:  # the unit leaves its direct arc
                folded[j] = False
                out[net.driver[j]].append(2 * net.direct[j])
                for b in net.req[j]:
                    r_dst[2 * b] = dst[b]


def _cancel_cycles_dense(net: _Network) -> Tuple[List[int], int, int]:
    """Reference twin: the same network, unfolded, with every cycle found
    by the dense canonical :func:`bellman_ford_constraints`."""
    variables = list(range(net.n_vars))
    flow = [0] * len(net.cost)
    for a in net.direct:
        flow[a] = 1
    rounds = 0
    while True:
        rounds = _next_round(rounds, net)
        constraints: List[Tuple[int, int, int]] = []
        moves: List[Tuple[int, int]] = []  # (arc, flow change) per constraint
        for a, (b, c, k) in enumerate(zip(net.src, net.dst, net.cost)):
            constraints.append((c, b, k))
            moves.append((a, 1))
            if flow[a]:
                constraints.append((b, c, -k))
                moves.append((a, -1))
        dist, cycle = bellman_ford_constraints(variables, constraints)
        if dist is not None:
            return [dist[v] for v in variables], rounds, 0
        for ci in cycle:
            a, d = moves[ci]
            flow[a] += d


def _next_round(rounds: int, net: _Network) -> int:
    """Count a round; every cancelled cycle lowers the flow cost by at
    least 1 and the optimum is ≥ −(constrained nets), so more rounds
    than that + 1 means the edge list has a negative-weight cycle."""
    if rounds > len(net.nets):
        raise RetimingError(
            f"cut retiming did not converge: {rounds} negative cycles "
            f"cancelled for {len(net.nets)} constrained cut nets; the "
            "register-weighted edges hold a negative-weight cycle"
        )
    return rounds + 1


def _solve(
    graph: CircuitGraph,
    cut_nets: Iterable[str],
    edges: Optional[Sequence[WeightedEdge]],
    pin_io: bool,
    cancel: Callable[[_Network], Tuple[List[int], int, int]],
) -> RetimingSolution:
    if edges is None:
        edges = register_weighted_edges(graph)
    cut_set = set(cut_nets)
    net = _network(graph, cut_set, edges, pin_io)
    dist, rounds, relaxations = cancel(net)
    perf_count("bf_relaxations", relaxations)
    perf_count("retiming_rounds", rounds)
    retiming = Retiming(edges=tuple(edges), rho=dict(zip(net.names, dist)))
    retiming.assert_legal()
    covered: Set[str] = set()
    dropped: Set[str] = set()
    for j, name in enumerate(net.nets):
        du = dist[net.driver[j]]
        if all(du <= dist[net.src[a]] + net.cost[a] for a in net.req[j]):
            covered.add(name)
        else:
            dropped.add(name)
    return RetimingSolution(
        retiming=retiming,
        covered_cuts=covered,
        dropped_cuts=dropped,
        iterations=rounds,
        unconstrained_cuts=cut_set - covered - dropped,
    )


def max_coverage_retiming(
    graph: CircuitGraph,
    cut_nets: Iterable[str],
    edges: Optional[Sequence[WeightedEdge]] = None,
    pin_io: bool = False,
) -> RetimingSolution:
    """The coverage step: a legal retiming registering as many cut nets
    as possible.

    Args:
        graph: the circuit graph (used to collapse registers into edge
            weights unless ``edges`` is given).
        cut_nets: nets that should carry a register after retiming.
        edges: precomputed register-weighted edges (performance hook).
        pin_io: force every primary input and virtual PO sink to share one
            lag (the Leiserson–Saxe host condition), so the retimed
            circuit is cycle-accurate I/O equivalent to the original.
            The paper's accounting leaves this off — it accepts latency
            shifts on input/output paths in exchange for covering more
            cuts (Eq. 1 "registers can be added arbitrarily").

    Returns:
        A :class:`RetimingSolution`; its ``retiming`` is legal, every
        edge carrying a covered cut holds ≥ 1 register, and no legal
        retiming covers more cuts (with ``pin_io``: no I/O-pinned one).
        Cut nets that never generate a constraint are reported in
        ``unconstrained_cuts``.  Its lags pull in registers without
        counting them; :func:`solve_cut_retiming` charges them against
        the cuts they cover.

    Raises:
        RetimingError: the edge list holds a negative-weight cycle.
    """
    return _solve(graph, cut_nets, edges, pin_io, _cancel_cycles)


def max_coverage_retiming_reference(
    graph: CircuitGraph,
    cut_nets: Iterable[str],
    edges: Optional[Sequence[WeightedEdge]] = None,
    pin_io: bool = False,
) -> RetimingSolution:
    """Reference twin of :func:`max_coverage_retiming`.

    Cancels cycles on the unfolded network, each found by the dense
    :func:`bellman_ford_constraints`.  Lags and the covered, dropped and
    unconstrained sets are bit-identical to the production solver; only
    the round count may differ.
    """
    return _solve(graph, cut_nets, edges, pin_io, _cancel_cycles_dense)


def solve_cut_retiming(
    graph: CircuitGraph,
    cut_nets: Iterable[str],
    edges: Optional[Sequence[WeightedEdge]] = None,
    pin_io: bool = False,
) -> RetimingSolution:
    """The legal retiming of least emitted area.

    One exact solve (:func:`~repro.retiming.registers.least_area_lags`):
    10 units per register ``apply_retiming`` emits plus 14 per dropped
    cut net, minimised over legal lags.  Arguments are
    :func:`max_coverage_retiming`'s.

    Returns:
        The greatest such lags ≤ 0: legal and honouring ``pin_io``.
        The covered, dropped and unconstrained sets are read off their
        weights, ``registers`` holds the count ``apply_retiming`` emits
        and ``iterations`` the descent's steps.  Fewer cuts may be
        covered than :func:`max_coverage_retiming` covers, where the
        registers a cut needs cost more than the 14 units it saves.

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
