"""Directed circuit graph with multi-pin nets (Section 2.1).

The paper models a synchronous circuit as ``G(V = R ∪ C, E)`` where ``V``
contains register nodes ``R`` and combinational nodes ``C`` and each *net*
is a single directed edge with fan-out branches from its source module.
:class:`CircuitGraph` implements exactly that: a **net** has one source node
and one or more sink nodes.  The graph holds topology only;
``Saturate_Network``'s per-net flow and congestion distance live in the
graph's compiled view (:attr:`repro.graphs.csr.CompiledGraph.flow` and
``dist``).

Node identifiers are strings (signal/cell names); each node has a
:class:`NodeKind` marking whether it is a primary input, a register, or a
combinational cell.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Set, Tuple

from ..errors import GraphError

__all__ = ["NodeKind", "Net", "CircuitGraph"]


class NodeKind(enum.Enum):
    """Role of a node in ``G(V = R ∪ C, E)``."""

    INPUT = "input"  # primary input (a source in C, per the paper's model)
    REGISTER = "register"  # R: a DFF
    COMB = "comb"  # C: a combinational cell


@dataclass(frozen=True)
class Net:
    """One multi-pin net: a source node and its fan-out branches."""

    name: str
    source: str
    sinks: Tuple[str, ...]

    @property
    def fanout(self) -> int:
        return len(self.sinks)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Net {self.name}: {self.source} -> {list(self.sinks)}>"


class CircuitGraph:
    """Directed graph of a synchronous circuit under the multi-pin net model."""

    def __init__(self, name: str = "G"):
        self.name = name
        self._kinds: Dict[str, NodeKind] = {}
        self._nets: Dict[str, Net] = {}
        self._out: Dict[str, List[str]] = {}  # node -> net names it sources
        self._in: Dict[str, List[str]] = {}  # node -> net names feeding it
        self._topo_version = 0  # bumped on add_node/add_net; see topo_version

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_node(self, node: str, kind: NodeKind) -> None:
        if node in self._kinds:
            raise GraphError(f"duplicate node {node!r}")
        self._kinds[node] = kind
        self._out[node] = []
        self._in[node] = []
        self._topo_version += 1

    def add_net(self, name: str, source: str, sinks: Iterable[str]) -> Net:
        """Add a net ``source -> sinks``; all endpoints must already exist."""
        if name in self._nets:
            raise GraphError(f"duplicate net {name!r}")
        sinks = tuple(sinks)
        if not sinks:
            raise GraphError(f"net {name!r} has no sinks")
        if source not in self._kinds:
            raise GraphError(f"net {name!r}: unknown source node {source!r}")
        for s in sinks:
            if s not in self._kinds:
                raise GraphError(f"net {name!r}: unknown sink node {s!r}")
        net = Net(name=name, source=source, sinks=sinks)
        self._nets[name] = net
        self._out[source].append(name)
        for s in sinks:
            self._in[s].append(name)
        self._topo_version += 1
        return net

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def nodes(self) -> Iterator[str]:
        return iter(self._kinds)

    def kind(self, node: str) -> NodeKind:
        try:
            return self._kinds[node]
        except KeyError:
            raise GraphError(f"unknown node {node!r}") from None

    def has_node(self, node: str) -> bool:
        return node in self._kinds

    def register_nodes(self) -> List[str]:
        """The set ``R``: all DFF nodes."""
        return [n for n, k in self._kinds.items() if k is NodeKind.REGISTER]

    def nets(self) -> Iterator[Net]:
        return iter(self._nets.values())

    def net(self, name: str) -> Net:
        try:
            return self._nets[name]
        except KeyError:
            raise GraphError(f"unknown net {name!r}") from None

    def has_net(self, name: str) -> bool:
        return name in self._nets

    def out_nets(self, node: str) -> List[Net]:
        """Nets sourced at ``node``."""
        return [self._nets[n] for n in self._out[node]]

    def in_nets(self, node: str) -> List[Net]:
        """Nets with a branch sinking at ``node``."""
        return [self._nets[n] for n in self._in[node]]

    def successors(self, node: str) -> List[str]:
        """Distinct nodes reachable over one net branch from ``node``."""
        seen: Set[str] = set()
        out: List[str] = []
        for net in self.out_nets(node):
            for s in net.sinks:
                if s not in seen:
                    seen.add(s)
                    out.append(s)
        return out

    def predecessors(self, node: str) -> List[str]:
        seen: Set[str] = set()
        out: List[str] = []
        for net in self.in_nets(node):
            if net.source not in seen:
                seen.add(net.source)
                out.append(net.source)
        return out

    @property
    def topo_version(self) -> int:
        """Monotonic counter of topology changes (node/net additions).

        :func:`repro.graphs.csr.compile_graph` keys its per-graph cache
        on this, so a stale compiled view is never served.
        """
        return self._topo_version

    @property
    def n_nodes(self) -> int:
        return len(self._kinds)

    @property
    def n_nets(self) -> int:
        return len(self._nets)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<CircuitGraph {self.name!r}: {self.n_nodes} nodes "
            f"({len(self.register_nodes())} R), {self.n_nets} nets>"
        )
