"""The area step: the lags of least emitted area.

A retiming pays for itself twice in the emitted netlist.  Every register
:func:`~repro.retiming.apply.apply_retiming` emits costs a DFF (one
shared chain per driver, as long as its longest reader needs), and
every cut net left without a register on some requirement edge keeps a
MUXed A_CELL, 14 units more than one built on a retimed functional DFF
(§2.3, Table 12).  :func:`least_area_lags` minimises the sum,

    area(ρ) = 10 · Σ_u max_{e = u→v} (w(e) + ρ(v) − ρ(u))
            + 14 · |cut nets with a requirement edge that holds no register|.

**Formulation** (Leiserson–Saxe minimum-area retiming plus one slack per
cut net).  A driver with two or more readers gets a mirror vertex
``m_u`` and one constraint per reader ``v``: ``ρ(v) − ρ(m_u) ≤ w_u −
w(u, v)``, where ``w_u`` is the driver's longest edge weight.  At an
optimum ``ρ(m_u)`` sits at its bound, so the driver's chain holds
``w_u + ρ(m_u) − ρ(u)`` registers.  A driver with a single reader ``v``
needs no mirror: its chain holds ``w(u, v) + ρ(v) − ρ(u)``.  Each
constrained cut net ``N`` (driver ``u_N``, requirement edges ``u_N →
head_i``) gets a slack ``y_N``.  In units of 2 (so 5 per register and 7
per dropped cut) the LP is

    minimise  5 · (Σ_u w_u + Σ_x b_x ρ(x)) + 7 · Σ_N (ρ(u_N) − y_N)
    s.t.      ρ(tail) − ρ(head) ≤ w(e)          every edge
              ρ(v) − ρ(m_u)    ≤ w_u − w(u, v)  every reader of a mirrored u
              y_N − ρ(head_i)  ≤ w_i − 1        every requirement edge of N
              y_N − ρ(u_N)     ≤ 0
              (with ``pin_io``: every PI and PO sink shares one lag)

where ``b_x`` is +1 for each mirror (or single reader) and −1 for each
driver.  At an optimum ``y_N`` sits at its bound, so each slack term is
0 when ``N`` is covered and 1 when it is dropped.  Every constraint
``x_a − x_b ≤ c`` is an arc ``b → a`` of cost ``c``: the constraint
matrix is a network matrix, so the optimum is integral, and the dual is
a min-cost flow with node supplies (arXiv 1402.2460).

**Production: steepest descent by maximum-weight closures.**  The
unretimed point (ρ = 0, each mirror at its lower bound, each ``y_N`` at
its upper bound) is feasible.  Lowering a set ``S`` of variables by 1
stays feasible exactly when ``S`` is closed under the tight arcs (an
arc ``b → a`` with ``x_a − x_b = c`` and ``b ∈ S`` needs ``a ∈ S``), and
it lowers the objective by the sum of ``S``'s coefficients.  Each step
finds the minimal maximum-weight closure by one max-flow on Picard's
network and lowers it by 1, until no closure has positive weight.  The
objective is linear on an L♮-convex set, so a point no downward step
improves is a minimum; and the minimal closure never crosses the
greatest minimiser below the start, so the descent stops on it.

**Reference twin** (:func:`least_area_lags_reference`): the dual solved
by a primal network simplex from a routed feasible flow, then the
greatest optimal point ≤ 0 by one Dijkstra over the optimal flow's
residual network.  Both return that point, so they agree bit for bit.
"""

from __future__ import annotations

import heapq
from collections import deque
from math import gcd, isqrt
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..errors import RetimingError
from ..graphs.paths import WeightedEdge
from ..netlist.area import (
    ACELL_MUXED_AREA_UNITS,
    ACELL_RETIMED_EXTRA_UNITS,
    DFF_AREA_UNITS,
)
from ..perf import count as perf_count

__all__ = [
    "emitted_area",
    "least_area_lags",
    "least_area_lags_reference",
]

#: What a dropped cut costs over a covered one: a MUXed A_CELL (23
#: units) instead of the A_CELL gates on a retimed functional DFF (9).
_DROP_AREA_UNITS = ACELL_MUXED_AREA_UNITS - ACELL_RETIMED_EXTRA_UNITS

_UNIT = gcd(DFF_AREA_UNITS, _DROP_AREA_UNITS)
_REGISTER = DFF_AREA_UNITS // _UNIT  # 5
_DROP = _DROP_AREA_UNITS // _UNIT  # 7


def emitted_area(registers: int, dropped: int) -> int:
    """The area a retiming controls: 10 units per register after fan-out
    sharing plus 14 per dropped cut net."""
    return DFF_AREA_UNITS * registers + _DROP_AREA_UNITS * dropped


class _Network:
    """The area LP as arcs ``src → dst``, each the constraint
    ``x[dst] − x[src] ≤ cost``.

    Variables ``0 .. len(names)−1`` are ρ, then the pin_io host when
    there is one, then the mirrors, then from ``n_slack`` on one ``y_N``
    per constrained cut net, in name order; ``driver[j]`` is the
    ``j``-th net's driver.  ``coef[x]`` is ``x``'s objective
    coefficient, which is also its supply in the dual.
    """

    def __init__(
        self,
        edges: Sequence[WeightedEdge],
        cut_set: Set[str],
        io_names: Optional[Sequence[str]],
    ) -> None:
        names = sorted({e.tail for e in edges} | {e.head for e in edges})
        index = {name: i for i, name in enumerate(names)}
        self.names = names
        self.src: List[int] = []
        self.dst: List[int] = []
        self.cost: List[int] = []
        reads: Dict[int, Dict[int, int]] = {}  # driver → reader → longest w
        by_net: Dict[str, List[WeightedEdge]] = {}
        for e in edges:
            if e.weight < 0:
                raise RetimingError(
                    f"edge {e.tail}->{e.head} has negative register weight "
                    f"{e.weight}; no circuit produces one"
                )
            u, v = index[e.tail], index[e.head]
            if u != v:  # a self-loop's constraint is 0 ≤ w(e)
                self._arc(v, u, e.weight)
            by_reader = reads.setdefault(u, {})
            if by_reader.get(v, -1) < e.weight:
                by_reader[v] = e.weight
            if e.via_nets[0] in cut_set:
                by_net.setdefault(e.via_nets[0], []).append(e)
        n = len(names)
        coef = [0] * n
        if io_names is not None:
            host = n
            n += 1
            coef.append(0)
            for name in io_names:
                self._arc(host, index[name], 0)
                self._arc(index[name], host, 0)
        self.base = 0  # Σ_u w_u: the register count's constant
        self.mirror: Dict[int, int] = {}  # multi-reader driver → mirror
        for u, by_reader in reads.items():
            longest = max(by_reader.values())
            self.base += longest
            coef[u] -= _REGISTER
            if len(by_reader) == 1:
                coef[next(iter(by_reader))] += _REGISTER
                continue
            self.mirror[u] = n
            coef.append(_REGISTER)
            for v, w in by_reader.items():
                self._arc(n, v, longest - w)
            n += 1
        self.reads = reads
        self.n_slack = n
        self.driver: List[int] = []
        for net in sorted(by_net):
            req = by_net[net]
            u = index[req[0].tail]
            self.driver.append(u)
            coef[u] += _DROP
            coef.append(-_DROP)
            for e in req:
                self._arc(index[e.head], n, e.weight - 1)
            self._arc(u, n, 0)
            n += 1
        self.n = n
        self.coef = coef

    def _arc(self, b: int, a: int, c: int) -> None:
        self.src.append(b)
        self.dst.append(a)
        self.cost.append(c)

    def start(self) -> List[int]:
        """The unretimed point: ρ = 0, each mirror at its lower bound
        (0, where its longest reader sits) and each ``y_N`` at its upper
        bound."""
        x = [0] * self.n
        for a in range(len(self.cost)):
            if self.dst[a] >= self.n_slack and self.cost[a] < 0:
                x[self.dst[a]] = -1  # a requirement edge with no register
        return x

    def registers(self, x: Sequence[int]) -> int:
        """The shared-chain registers at an optimum ``x``: the objective
        less its slack terms, each ``y_N`` then sitting at its bound."""
        dropped = sum(
            x[u] - x[self.n_slack + j] for j, u in enumerate(self.driver)
        )
        value = sum(c * v for c, v in zip(self.coef, x))
        return self.base + (value - _DROP * dropped) // _REGISTER


# ---------------------------------------------------------------------------
# production: steepest descent by minimal maximum-weight closures
# ---------------------------------------------------------------------------
def _descend(net: _Network) -> Tuple[List[int], int, int]:
    """Lower the minimal maximum-weight closure by 1 until none has
    positive weight.  Returns ``(x, steps, augmenting paths)``."""
    x = net.start()
    steps = paths = 0
    while True:
        closure, found = _min_closure(net, x)
        paths += found
        if not closure:
            return x, steps, paths
        for v in closure:
            x[v] -= 1
        steps += 1


def _tight_residual(
    net: _Network, x: List[int]
) -> Tuple[List[int], List[int], List[int]]:
    """The arcs tight at ``x`` as a residual network in CSR form.

    Returns ``(first, to, code)``: the residual arcs leaving ``v`` are
    ``to``/``code`` from ``first[v]`` to ``first[v + 1]``.  Code ``2k``
    is the ``k``-th tight arc forward (uncapacitated), ``2k + 1`` its
    reverse (present while that arc carries flow).
    """
    n, src, dst, cost = net.n, net.src, net.dst, net.cost
    tight = [
        a for a in range(len(cost)) if x[dst[a]] - x[src[a]] == cost[a]
    ]
    first = [0] * (n + 1)
    for a in tight:
        first[src[a] + 1] += 1
        first[dst[a] + 1] += 1
    for v in range(n):
        first[v + 1] += first[v]
    fill = first[:n]
    to = [0] * first[n]
    code = [0] * first[n]
    for k, a in enumerate(tight):
        b, c = src[a], dst[a]
        to[fill[b]] = c
        code[fill[b]] = 2 * k
        fill[b] += 1
        to[fill[c]] = b
        code[fill[c]] = 2 * k + 1
        fill[c] += 1
    return first, to, code


def _min_closure(net: _Network, x: List[int]) -> Tuple[List[int], int]:
    """The minimal maximum-weight closure of the tight arcs at ``x``.

    Picard's network: the source feeds each node with a positive
    coefficient, each node with a negative one drains to the sink, and
    each tight arc has infinite capacity.  A max-flow, then the nodes
    the source still reaches in the residual network.  Returns
    ``(closure, augmenting paths)``; the closure is empty when no
    closure has positive weight.

    The max-flow augments along shortest paths (ISAP): each node keeps
    a lower bound on its residual distance to the sink, a walk from a
    source follows arcs that lower it by one, and a node with no such
    arc is relabelled.  A label nobody holds any more (a gap) cuts off
    every node above it, and the labels are recomputed exactly by a
    backward breadth-first search after every ``n`` relabels.
    """
    n = net.n
    first, to, code = _tight_residual(net, x)
    flow = [0] * (len(code) // 2)
    supply = [c if c > 0 else 0 for c in net.coef]
    demand = [-c if c < 0 else 0 for c in net.coef]
    top = n + 1  # the label of a node that cannot reach the sink
    label = [top] * n
    count = [0] * (top + 1)
    at = first[:n]  # current arc

    def exact_labels() -> None:
        label[:] = [top] * n
        queue = [v for v in range(n) if demand[v]]
        for v in queue:
            label[v] = 1
        for c in queue:  # backward breadth first over the residual arcs
            for p in range(first[c], first[c + 1]):
                b = to[p]
                if label[b] == top and (code[p] & 1 or flow[code[p] >> 1]):
                    label[b] = label[c] + 1
                    queue.append(b)
        count[:] = [0] * (top + 1)
        for v in range(n):
            count[label[v]] += 1
        at[:] = first[:n]

    exact_labels()
    relabels = 0
    found = 0
    nodes: List[int] = []
    arcs: List[int] = []
    for s in range(n):
        while supply[s] and label[s] < top:
            if relabels >= n:
                exact_labels()
                relabels = 0
                continue
            v = s
            while True:
                if demand[v]:  # the arc to the sink is admissible
                    break
                want = label[v] - 1
                p, end = at[v], first[v + 1]
                while p < end:
                    w = to[p]
                    if label[w] == want and (
                        not code[p] & 1 or flow[code[p] >> 1]
                    ):
                        break
                    p += 1
                at[v] = p
                if p < end:
                    nodes.append(v)
                    arcs.append(code[p])
                    v = w
                    continue
                # relabel v, then retreat
                low = top - 1
                for p in range(first[v], end):
                    if label[to[p]] < low and (
                        not code[p] & 1 or flow[code[p] >> 1]
                    ):
                        low = label[to[p]]
                relabels += 1
                old = label[v]
                count[old] -= 1
                label[v] = low + 1
                count[low + 1] += 1
                at[v] = first[v]
                if not count[old]:  # gap: nothing above it reaches the sink
                    for u in range(n):
                        if old < label[u] < top:
                            count[label[u]] -= 1
                            label[u] = top
                            count[top] += 1
                if v == s:
                    break
                v = nodes.pop()
                arcs.pop()
            if not demand[v]:
                continue
            push = min(supply[s], demand[v])
            for r in arcs:
                if r & 1 and flow[r >> 1] < push:
                    push = flow[r >> 1]
            for r in arcs:
                flow[r >> 1] += -push if r & 1 else push
            supply[s] -= push
            demand[v] -= push
            found += 1
            nodes.clear()
            arcs.clear()
    closure = [v for v in range(n) if supply[v]]
    seen = bytearray(n)
    for v in closure:
        seen[v] = 1
    for v in closure:  # grows while it is read: a breadth-first search
        for p in range(first[v], first[v + 1]):
            w = to[p]
            if not seen[w] and (not code[p] & 1 or flow[code[p] >> 1]):
                seen[w] = 1
                closure.append(w)
    return closure, found


# ---------------------------------------------------------------------------
# reference twin: network simplex on the dual, then the canonical lags
# ---------------------------------------------------------------------------
def _routes(net: _Network) -> List[int]:
    """The starting basis: each node's tree arc, or −1 for the root.

    A backward breadth-first search from the nodes that drive nothing
    routes every driver's unit from its mirror (or single reader)
    through the reader it was reached from, so the routes form a forest
    and each tree arc carries one driver's supply.  Each ``y_N`` hangs
    off ``u_N`` on its direct arc, which carries ``N``'s slack supply.
    """
    n_names = len(net.names)
    arc_of: Dict[Tuple[int, int], int] = {}  # the cheapest of parallel arcs
    for a, key in enumerate(zip(net.src, net.dst)):
        if key not in arc_of or net.cost[a] < net.cost[arc_of[key]]:
            arc_of[key] = a
    mirror = net.mirror
    readers: List[List[int]] = [[] for _ in range(n_names)]
    for u, by_reader in net.reads.items():
        for v in by_reader:
            readers[v].append(u)
    route = [-1] * net.n
    reached = bytearray(n_names)
    queue = deque(v for v in range(n_names) if v not in net.reads)
    for v in queue:
        reached[v] = 1
    while queue:
        v = queue.popleft()
        for u in readers[v]:
            if reached[u]:
                continue
            reached[u] = 1
            route[u] = arc_of[v, u]
            if u in mirror:
                route[mirror[u]] = arc_of[mirror[u], v]
            queue.append(u)
    for j, u in enumerate(net.driver):
        y = net.n_slack + j
        route[y] = arc_of[u, y]
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
    for x, a in enumerate(_routes(net)):
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
    excess = net.coef + [0]
    for x in reversed(order[1:]):
        a, s = pred[x], excess[x]
        if a >= m:  # artificial: point it the way its flow goes
            if s < 0:
                src[a], dst[a] = root, x
            else:
                src[a] = x
        flow[a] = s if src[a] == x else -s  # a route arc carries one supply
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
            raise RetimingError("area step: the flow is unbounded")
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
        raise RetimingError("area step: no flow meets every demand")
    return flow[:m], pi[:n], pivots


def _canonical_lags(
    net: _Network, flow: List[int], pi: List[int]
) -> List[int]:
    """The greatest solution ≤ 0 of the residual network's constraints.

    That is the shortest distance to each node from a virtual source
    joined to every node by a 0-cost arc.  The simplex's potentials make
    every residual arc's reduced cost non-negative, and the virtual
    arcs' too when the source takes the largest potential, so one
    Dijkstra finds it.
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
    while heap:
        k, v = heapq.heappop(heap)
        if done[v]:
            continue
        done[v] = 1
        for u, rc in out[v]:
            if k + rc < key[u]:
                key[u] = k + rc
                heapq.heappush(heap, (k + rc, u))
    return [k - top + p for k, p in zip(key, pi)]


def _solve(
    edges: Sequence[WeightedEdge],
    cut_set: Set[str],
    io_names: Optional[Sequence[str]],
    reference: bool,
) -> Tuple[Dict[str, int], int, int]:
    net = _Network(edges, cut_set, io_names)
    if reference:
        flow, pi, work = _network_simplex(net)
        x = _canonical_lags(net, flow, pi)
    else:
        x, work, paths = _descend(net)
        perf_count("area_steps", work)
        perf_count("area_paths", paths)
    registers = net.registers(x)
    perf_count("retimed_registers", registers)
    return dict(zip(net.names, x)), registers, work


def least_area_lags(
    edges: Sequence[WeightedEdge],
    cut_set: Set[str],
    io_names: Optional[Sequence[str]] = None,
) -> Tuple[Dict[str, int], int, int]:
    """The canonical lags of least emitted area.

    Args:
        edges: the register-weighted edge list.
        cut_set: the cut nets; a cut is covered when every requirement
            edge (every edge whose first via net is the cut) keeps a
            register.
        io_names: with ``pin_io``, the PIs and PO sinks that must share
            one lag; ``None`` leaves them free.

    Returns:
        ``(rho, registers, steps)``: the greatest legal lags ≤ 0 that
        minimise :func:`emitted_area`, the registers ``apply_retiming``
        emits under them, and the descent's steps.  Counts
        ``area_steps`` and ``area_paths`` (the work: steps and
        augmenting paths) and ``retimed_registers`` (the count).

    Raises:
        RetimingError: an edge has a negative weight.
    """
    return _solve(edges, cut_set, io_names, reference=False)


def least_area_lags_reference(
    edges: Sequence[WeightedEdge],
    cut_set: Set[str],
    io_names: Optional[Sequence[str]] = None,
) -> Tuple[Dict[str, int], int, int]:
    """Reference twin of :func:`least_area_lags`: the dual by network
    simplex, then the greatest optimal lags ≤ 0 by one Dijkstra.  Lags
    and register count are bit-identical; the third value counts
    pivots instead of steps."""
    return _solve(edges, cut_set, io_names, reference=True)
