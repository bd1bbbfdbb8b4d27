"""The register step: the fewest registers that keep a covered set.

:func:`~repro.retiming.solve.max_coverage_retiming` fixes which cut nets
hold a register.  Many lags cover that same set, and they differ in how
many registers :func:`~repro.retiming.apply.apply_retiming` emits: one
shared chain per driver, as long as its longest reader needs,

    registers(ρ) = Σ_u max_{e = u→v} (w(e) + ρ(v) − ρ(u)).

**Formulation** (Leiserson–Saxe minimum-area retiming).  A driver with
two or more readers gets a mirror vertex ``m_u`` and one constraint per
reader ``v``: ``ρ(v) − ρ(m_u) ≤ w_u − w(u, v)``, where ``w_u`` is the
driver's longest edge weight.  At an optimum ``ρ(m_u)`` sits at its
bound, so the driver's chain holds ``w_u + ρ(m_u) − ρ(u)`` registers.
A driver with a single reader ``v`` needs no mirror: its chain holds
``w(u, v) + ρ(v) − ρ(u)``.  The LP is

    minimise  Σ_u w_u + Σ_x b_x ρ(x)
    s.t.      ρ(tail) − ρ(head) ≤ w(e) − [e is a requirement edge
                                          of a covered cut]
              ρ(v) − ρ(m_u)    ≤ w_u − w(u, v)
              (with ``pin_io``: every PI and PO sink shares one lag)

where ``b_x`` is +1 for each mirror (or single reader) and −1 for each
driver.  Every constraint ``x_a − x_b ≤ c`` is an arc ``b → a`` of
cost ``c``, so the dual is a min-cost flow with node supplies: each
mirror supplies one unit, each driver demands one, over uncapacitated
arcs (the network-flow dual of retiming, arXiv 1402.2460).  Only the
cheapest of parallel arcs matters, so they are merged.

**Algorithm.**  A primal network simplex on flat int lists.  The start
is a real feasible flow: a backward breadth-first search from the nodes
that drive nothing routes each driver's unit from its mirror through
one reader, and the tree arcs of those routes carry one unit each.  A
driver the search never reaches (a loop whose logic reaches no
output) hangs from an artificial root by a big-M arc.  Entering arcs
are chosen by block search (the most negative reduced cost in the next
block of about √m arcs) and the leaving arc by Cunningham's strongly
feasible rule, which rules out cycling.

**Canonical lags.**  ρ is the greatest all-zero-start fixed point of the
optimal flow's residual network — the same canonical choice as the
coverage step (DESIGN.md §8.1): by complementary slackness those
constraints describe exactly the set of optimal lags, whichever optimal
flow the pivots reach.  One Dijkstra over the residual arcs, with the
simplex's potentials making every arc cost non-negative, finds it.
"""

from __future__ import annotations

import heapq
from collections import deque
from math import isqrt
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..errors import RetimingError
from ..graphs.paths import WeightedEdge
from ..perf import count as perf_count

__all__ = ["fewest_register_lags"]


class _Network:
    """The register step's LP as arcs ``src → dst``, each the constraint
    ``x[dst] − x[src] ≤ cost``.

    Variables ``0 .. len(names)−1`` are ρ, then the pin_io host when
    there is one, then the mirrors.  ``route[x]`` is the tree arc that
    joins ``x`` to its parent in the starting basis, or −1.
    """

    def __init__(
        self,
        edges: Sequence[WeightedEdge],
        covered: Set[str],
        io_names: Optional[Sequence[str]],
    ) -> None:
        names = sorted({e.tail for e in edges} | {e.head for e in edges})
        index = {name: i for i, name in enumerate(names)}
        self.names = names
        self.src: List[int] = []
        self.dst: List[int] = []
        self.cost: List[int] = []
        self._arc_of: Dict[Tuple[int, int], int] = {}
        reads: Dict[int, Dict[int, int]] = {}  # driver → reader → longest w
        for e in edges:
            u, v = index[e.tail], index[e.head]
            if u != v:  # a self-loop's constraint is 0 ≤ w(e)
                self._arc(v, u, e.weight - (e.via_nets[0] in covered))
            by_reader = reads.setdefault(u, {})
            if by_reader.get(v, -1) < e.weight:
                by_reader[v] = e.weight
        n = len(names)
        supply = [0] * n
        if io_names is not None:
            host = n
            n += 1
            supply.append(0)
            for name in io_names:
                self._arc(host, index[name], 0)
                self._arc(index[name], host, 0)
        self.base = 0  # Σ_u w_u: the objective's constant
        mirror: Dict[int, int] = {}
        for u, by_reader in reads.items():
            longest = max(by_reader.values())
            self.base += longest
            supply[u] -= 1
            if len(by_reader) == 1:
                supply[next(iter(by_reader))] += 1
                continue
            mirror[u] = n
            n += 1
            supply.append(1)
            for v, w in by_reader.items():
                self._arc(mirror[u], v, longest - w)
        self.n = n
        self.supply = supply
        self.route = self._routes(len(names), reads, mirror)

    def _arc(self, b: int, a: int, c: int) -> None:
        i = self._arc_of.get((b, a))
        if i is None:
            self._arc_of[b, a] = len(self.cost)
            self.src.append(b)
            self.dst.append(a)
            self.cost.append(c)
        elif c < self.cost[i]:
            self.cost[i] = c

    def _routes(
        self,
        n_names: int,
        reads: Dict[int, Dict[int, int]],
        mirror: Dict[int, int],
    ) -> List[int]:
        """Route every driver's unit from its mirror through one reader.

        A backward breadth-first search from the nodes that drive
        nothing picks, for each driver it reaches, the reader it was
        reached from, so the routes form a forest.
        """
        readers: List[List[int]] = [[] for _ in range(n_names)]
        for u, by_reader in reads.items():
            for v in by_reader:
                readers[v].append(u)
        route = [-1] * self.n
        reached = bytearray(n_names)
        queue = deque(v for v in range(n_names) if v not in reads)
        for v in queue:
            reached[v] = 1
        while queue:
            v = queue.popleft()
            for u in readers[v]:
                if reached[u]:
                    continue
                reached[u] = 1
                route[u] = self._arc_of[v, u]
                if u in mirror:
                    route[mirror[u]] = self._arc_of[mirror[u], v]
                queue.append(u)
        return route


def _network_simplex(net: _Network) -> Tuple[List[int], List[int], int]:
    """Min-cost flow over ``net``'s uncapacitated arcs.

    Returns ``(flow, potential, pivots)``: an optimal flow, potentials
    under which every arc's reduced cost ``cost + π(src) − π(dst)`` is
    non-negative (zero on every arc that carries flow), and the number
    of pivots.  Node ``n`` is the artificial root; arc ``m + x`` joins
    node ``x`` to it.
    """
    n, m = net.n, len(net.cost)
    root = n
    big = (n + 1) * (1 + max(map(abs, net.cost), default=0))
    src = net.src + [root] * n
    dst = net.dst + [root] * n
    cost = net.cost + [big] * n
    flow = [0] * (m + n)
    parent = [root] * (n + 1)
    pred = list(range(m, m + n)) + [-1]
    for x, a in enumerate(net.route):
        if a >= 0:
            pred[x] = a
            parent[x] = src[a] + dst[a] - x
    # children as insertion-ordered dicts: O(1) unlink, deterministic order
    children: List[Dict[int, None]] = [{} for _ in range(n + 1)]
    for x in range(n):
        children[parent[x]][x] = None
    order = [root]
    for x in order:
        order.extend(children[x])
    # the basic flow: each tree arc carries its subtree's net supply
    excess = net.supply + [0]
    for x in reversed(order[1:]):
        a, s = pred[x], excess[x]
        if a >= m:  # artificial: point it the way its flow goes
            if s < 0:
                src[a], dst[a] = root, x
            else:
                src[a] = x
        flow[a] = s if src[a] == x else -s  # a route arc carries one unit
        excess[parent[x]] += s
    depth = [0] * (n + 1)
    pi = [0] * (n + 1)
    for x in order[1:]:
        a, p = pred[x], parent[x]
        depth[x] = depth[p] + 1
        pi[x] = pi[p] + cost[a] if dst[a] == x else pi[p] - cost[a]

    block = max(1, isqrt(m))
    start = 0
    pivots = 0
    while True:
        # block search over the real arcs: the most negative reduced cost
        entering, best, seen = -1, 0, 0
        while entering < 0 and seen < m:
            stop = min(start + block, m)
            for a in range(start, stop):
                c = cost[a] + pi[src[a]] - pi[dst[a]]
                if c < best:
                    best, entering = c, a
            seen += stop - start
            start = stop % m
        if entering < 0:
            break
        pivots += 1
        p, q = src[entering], dst[entering]
        # the tree paths from p and from q up to their common ancestor
        p_path: List[int] = []
        q_path: List[int] = []
        x, y = p, q
        while depth[x] > depth[y]:
            p_path.append(x)
            x = parent[x]
        while depth[y] > depth[x]:
            q_path.append(y)
            y = parent[y]
        while x != y:
            p_path.append(x)
            x = parent[x]
            q_path.append(y)
            y = parent[y]
        # The cycle runs apex → p → q → apex; an arc it crosses against
        # its direction can give up its flow.  Leave by the last such
        # arc of least flow in that order (strongly feasible rule).
        p_cap = q_cap = -1
        p_leave = q_leave = -1
        for x in p_path:  # upward from p: the first least is the last
            a = pred[x]
            if src[a] == x and (p_cap < 0 or flow[a] < p_cap):
                p_cap, p_leave = flow[a], x
        for y in q_path:
            a = pred[y]
            if dst[a] == y and (q_cap < 0 or flow[a] <= q_cap):
                q_cap, q_leave = flow[a], y
        if q_leave >= 0 and (p_leave < 0 or q_cap <= p_cap):
            delta, leave, moved, anchor, shift = q_cap, q_leave, q, p, best
        elif p_leave >= 0:
            delta, leave, moved, anchor, shift = p_cap, p_leave, p, q, -best
        else:
            raise RetimingError("register step: the flow is unbounded")
        if delta:
            for x in p_path:
                a = pred[x]
                flow[a] += -delta if src[a] == x else delta
            for y in q_path:
                a = pred[y]
                flow[a] += -delta if dst[a] == y else delta
            flow[entering] = delta
        # hang the subtree below the leaving arc from the entering arc,
        # rerooted at the entering arc's endpoint inside it
        del children[parent[leave]][leave]
        x, new_parent, new_arc = moved, anchor, entering
        while True:
            old_parent, old_arc = parent[x], pred[x]
            parent[x], pred[x] = new_parent, new_arc
            children[new_parent][x] = None
            if x == leave:
                break
            del children[old_parent][x]
            x, new_parent, new_arc = old_parent, x, old_arc
        stack = [moved]
        while stack:
            x = stack.pop()
            depth[x] = depth[parent[x]] + 1
            pi[x] += shift
            stack.extend(children[x])
    if any(flow[m:]):
        raise RetimingError(
            "register step: no flow meets every driver's demand"
        )
    return flow[:m], pi[:n], pivots


def _canonical_lags(
    net: _Network, flow: List[int], pi: List[int]
) -> Tuple[List[int], int]:
    """The greatest solution ≤ 0 of the residual network's constraints.

    That is the shortest distance to each node from a virtual source
    joined to every node by a 0-cost arc.  The simplex's potentials make
    every residual arc's reduced cost non-negative, and the virtual
    arcs' too when the source takes the largest potential, so one
    Dijkstra finds it.  Returns ``(lags, relaxations)``.
    """
    n = net.n
    out: List[List[Tuple[int, int]]] = [[] for _ in range(n)]
    for a, (s, d, c) in enumerate(zip(net.src, net.dst, net.cost)):
        out[s].append((d, c + pi[s] - pi[d]))
        if flow[a]:  # the reverse arc, tight by complementary slackness
            out[d].append((s, 0))
    top = max(pi, default=0)
    key = [top - p for p in pi]
    heap = list(zip(key, range(n)))
    heapq.heapify(heap)
    done = bytearray(n)
    relaxations = 0
    while heap:
        k, v = heapq.heappop(heap)
        if done[v]:
            continue
        done[v] = 1
        for u, rc in out[v]:
            if k + rc < key[u]:
                key[u] = k + rc
                relaxations += 1
                heapq.heappush(heap, (k + rc, u))
    return [k - top + p for k, p in zip(key, pi)], relaxations


def fewest_register_lags(
    edges: Sequence[WeightedEdge],
    covered: Set[str],
    io_names: Optional[Sequence[str]] = None,
) -> Tuple[Dict[str, int], int]:
    """The canonical lags with the fewest shared-chain registers.

    Args:
        edges: the register-weighted edge list.
        covered: cut nets that must keep ≥ 1 register on every
            requirement edge (the edges whose first via net is the cut).
        io_names: with ``pin_io``, the PIs and PO sinks that must share
            one lag; ``None`` leaves them free.

    Returns:
        ``(rho, registers)``: legal lags over every edge endpoint that
        cover ``covered``, and the registers ``apply_retiming`` emits
        under them, which no such lags undercut.  Counts
        ``register_pivots`` and ``register_relaxations`` (the work) and
        ``retimed_registers`` (the count).
    """
    net = _Network(edges, covered, io_names)
    flow, pi, pivots = _network_simplex(net)
    lags, relaxations = _canonical_lags(net, flow, pi)
    registers = net.base + sum(b * x for b, x in zip(net.supply, lags))
    perf_count("register_pivots", pivots)
    perf_count("register_relaxations", relaxations)
    perf_count("retimed_registers", registers)
    return dict(zip(net.names, lags)), registers
