"""Oracles on the register step: the fewest registers at maximum coverage.

:func:`solve_cut_retiming` keeps the coverage step's covered set and
returns the lags whose retimed netlist holds the fewest registers.  Each
oracle holds that covered set fixed and checks the register count
against something the solver did not compute:

* (a) a brute-force minimum over a box of lags, on every netlist of a
  tiny family, and around the solver's lags on random feedback
  circuits;
* (b) networkx's network simplex on a min-cost flow dual this file
  builds itself;
* (c) the count recounted from the edge list, and on the PO-sink graph
  the register count and DFFs ``apply_retiming`` emits;
* (d) never more registers than the coverage step's own lags, the same
  split, and a legal minimal cover.
"""

from itertools import combinations, product

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import MercedConfig, load_circuit
from repro.corpus import (
    TREND_SPECS,
    generate_corpus_circuit,
    load_corpus_circuit,
)
from repro.graphs import SCCIndex, build_circuit_graph, register_weighted_edges
from repro.graphs.build import is_po_node
from repro.graphs.digraph import NodeKind
from repro.netlist import parse_bench
from repro.netlist.bench import write_bench
from repro.partition import assign_cbit, make_group
from repro.retiming import apply_retiming
from repro.retiming.solve import (
    bellman_ford_constraints,
    max_coverage_retiming,
    solve_cut_retiming,
)
from repro.retiming.verify import verify_drop_set


def _io_nodes(graph, nodes):
    return {
        n
        for n in nodes
        if is_po_node(n)
        or (graph.has_node(n) and graph.kind(n) is NodeKind.INPUT)
    }


def _registers(edges, rho):
    """Σ over drivers of the longest retimed edge (one shared chain each)."""
    longest = {}
    for e in edges:
        w = e.weight + rho.get(e.head, 0) - rho.get(e.tail, 0)
        longest[e.tail] = max(longest.get(e.tail, 0), w)
    return sum(longest.values())


def _feasible(edges, covered, rho):
    return all(
        e.weight + rho[e.head] - rho[e.tail] >= (e.via_nets[0] in covered)
        for e in edges
    )


def _box_minimum(edges, covered, io, values):
    """The fewest registers over every lag vector drawn from ``values``.

    ``values[x]`` lists the lags variable ``x`` may take; the PIs and PO
    sinks in ``io`` share the variable ``"host"``.  Returns the minimum
    over the legal lags that cover ``covered``, or ``None``.  A partial
    vector is abandoned as soon as a constraint between assigned
    variables fails.
    """
    nodes = sorted({e.tail for e in edges} | {e.head for e in edges})
    var = {n: "host" if n in io else n for n in nodes}
    names = sorted(set(var.values()))
    pos = {x: i for i, x in enumerate(names)}
    checks = [[] for _ in names]  # (i, j, c): lag[i] − lag[j] ≤ c
    for e in edges:
        i, j = pos[var[e.tail]], pos[var[e.head]]
        c = e.weight - (e.via_nets[0] in covered)
        checks[max(i, j)].append((i, j, c))
    lag = [0] * len(names)
    best = None

    def assign(k):
        nonlocal best
        if k == len(names):
            rho = {n: lag[pos[var[n]]] for n in nodes}
            count = _registers(edges, rho)
            best = count if best is None else min(best, count)
            return
        for value in values[names[k]]:
            lag[k] = value
            if all(lag[i] - lag[j] <= c for i, j, c in checks[k]):
                assign(k + 1)

    assign(0)
    return best


def _check_against_coverage(graph, edges, cuts, pin_io):
    """(c) and (d) on one solve; returns the solution."""
    sol = solve_cut_retiming(graph, cuts, edges=edges, pin_io=pin_io)
    cov = max_coverage_retiming(graph, cuts, edges=edges, pin_io=pin_io)
    assert sol.covered_cuts == cov.covered_cuts
    assert sol.dropped_cuts == cov.dropped_cuts
    assert sol.unconstrained_cuts == cov.unconstrained_cuts
    assert sol.iterations == cov.iterations
    assert verify_drop_set(graph, cuts, sol, edges=edges) is None
    rho = sol.retiming.rho
    assert sol.registers == _registers(edges, rho)
    assert sol.registers <= _registers(edges, cov.retiming.rho)
    if pin_io:
        io = _io_nodes(graph, rho)
        assert len({rho[n] for n in io}) <= 1
    return sol


# ---------------------------------------------------------------------------
# (a) brute force
# ---------------------------------------------------------------------------
def _tiny_netlists():
    """Every netlist of a tiny family, enumerated with ``itertools``.

    One PI ``a``; 1–3 two-input AND gates, each reading a pair of
    distinct signals from the PI, the earlier gates and the DFFs; 1–2
    DFFs (at most 4 cells), each reading the PI, any gate or an earlier
    DFF, so DFFs may close loops and chain; the last gate is the output.
    """
    for n_gates, n_dffs in ((1, 1), (2, 1), (3, 1), (1, 2), (2, 2)):
        gates = [f"g{i}" for i in range(n_gates)]
        dffs = [f"q{i}" for i in range(n_dffs)]
        pins = [
            list(combinations(["a"] + gates[:i] + dffs, 2))
            for i in range(n_gates)
        ]
        sources = [["a"] + gates + dffs[:j] for j in range(n_dffs)]
        for reads in product(*pins):
            for feeds in product(*sources):
                lines = ["INPUT(a)", f"OUTPUT({gates[-1]})"]
                lines += [
                    f"{g} = AND({x}, {y})" for g, (x, y) in zip(gates, reads)
                ]
                lines += [f"{q} = DFF({s})" for q, s in zip(dffs, feeds)]
                yield parse_bench("\n".join(lines) + "\n", name="tiny")


def _describe(netlist, cuts, pin_io):
    return f"pin_io={pin_io} cuts={cuts}\n{write_bench(netlist)}"


def test_every_tiny_netlist_meets_the_brute_force_minimum():
    """Nothing in the box [−4, 0]^V beats the solver, and the solver's
    lags lie in that box, so the two minima agree: with or without
    ``pin_io``, with no cut and with every net cut."""
    box = range(-4, 1)
    cases = 0
    for netlist in _tiny_netlists():
        graph = build_circuit_graph(netlist, with_po_nodes=True)
        edges = register_weighted_edges(graph)
        nets = sorted({e.via_nets[0] for e in edges})
        for pin_io, cuts in product((False, True), ([], nets)):
            sol = _check_against_coverage(graph, edges, cuts, pin_io)
            rho = sol.retiming.rho
            assert all(lag in box for lag in rho.values())
            nodes = sorted(rho)
            io = _io_nodes(graph, nodes) if pin_io else set()
            values = {n: box for n in nodes}
            values["host"] = box
            minimum = _box_minimum(edges, sol.covered_cuts, io, values)
            assert sol.registers == minimum, _describe(netlist, cuts, pin_io)
            retimed = apply_retiming(netlist, rho)
            assert retimed.n_registers_after == sol.registers
            cases += 1
    assert cases == 4 * 317


@st.composite
def feedback_netlists(draw):
    """Random netlists of at most 8 gates and DFFs whose DFFs may close
    loops: gates read earlier gates, PIs or any DFF; DFFs read gates or
    PIs."""
    n_inputs = draw(st.integers(min_value=1, max_value=2))
    n_gates = draw(st.integers(min_value=2, max_value=6))
    n_dffs = draw(st.integers(min_value=1, max_value=8 - n_gates))
    pis = [f"pi{i}" for i in range(n_inputs)]
    gates = [f"g{i}" for i in range(n_gates)]
    dffs = [f"q{i}" for i in range(n_dffs)]
    lines = [f"INPUT({pi})" for pi in pis]
    for i, g in enumerate(gates):
        pool = pis + gates[:i] + dffs
        pins = draw(
            st.lists(st.sampled_from(pool), min_size=1, max_size=3)
        )
        gtype = "OR" if len(pins) > 1 else "NOT"
        lines.append(f"{g} = {gtype}({', '.join(pins)})")
    for q in dffs:
        lines.append(f"{q} = DFF({draw(st.sampled_from(gates + pis))})")
    outputs = draw(st.lists(st.sampled_from(gates), min_size=1, max_size=2))
    lines += [f"OUTPUT({g})" for g in sorted(set(outputs))]
    return parse_bench("\n".join(lines) + "\n", name="feedback")


@given(feedback_netlists(), st.booleans(), st.data())
@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_no_lags_next_to_the_solution_hold_fewer_registers(nl, pin_io, data):
    """Brute force over the box ρ + {−1, 0, 1}^V around the solver's lags.

    The objective and constraints are L♮-convex (differences of lags,
    and a driver's chain is a maximum of them), and an L♮-convex function
    is globally minimal where no ρ ± χ_S does better; every such point
    lies in this box, so an exact solver must win the whole box.
    """
    graph = build_circuit_graph(nl, with_po_nodes=True)
    edges = register_weighted_edges(graph)
    nets = sorted({e.via_nets[0] for e in edges})
    cuts = data.draw(
        st.lists(st.sampled_from(nets), unique=True), label="cuts"
    )
    sol = _check_against_coverage(graph, edges, cuts, pin_io)
    rho = sol.retiming.rho
    nodes = sorted(rho)
    io = _io_nodes(graph, nodes) if pin_io else set()
    values = {n: (rho[n] - 1, rho[n], rho[n] + 1) for n in nodes}
    first = nodes[0]
    if io:
        lag = rho[next(iter(sorted(io)))]
        values["host"] = (lag - 1, lag, lag + 1)
        if first in io:
            first = "host"
    values[first] = values[first][1:2]
    assert _box_minimum(edges, sol.covered_cuts, io, values) == sol.registers
    assert apply_retiming(nl, rho).n_registers_after == sol.registers


# ---------------------------------------------------------------------------
# (b) networkx on a dual built here; (c) and (d) on real cut sets
# ---------------------------------------------------------------------------
def _netlist(name):
    if name == "corpus-400":
        spec = TREND_SPECS["corpus-50k"].with_(
            name=name, seed=1996, n_gates=400
        )
        return generate_corpus_circuit(spec)
    if name.startswith("corpus-"):
        return load_corpus_circuit(name)
    return load_circuit(name)


@pytest.fixture(scope="module", params=[
    "s27", "s510", "s420.1", "s641", "s713",
    "corpus-400", "corpus-ff400", "corpus-ring600",
])
def cut_problem(request):
    """The PO-sink graph, its edges and the partitioner's cut nets."""
    netlist = _netlist(request.param)
    graph = build_circuit_graph(netlist, with_po_nodes=False)
    lk = 3 if request.param == "s27" else 16  # s27 at l_k 16 cuts nothing
    config = MercedConfig(seed=1996, lk=lk, beta=1, min_visit=5)
    group = make_group(graph, SCCIndex(graph), config, strict=False)
    cuts = assign_cbit(group.partition).partition.cut_nets()
    po_graph = build_circuit_graph(netlist, with_po_nodes=True)
    return netlist, po_graph, register_weighted_edges(po_graph), cuts


def _networkx_minimum(graph, edges, covered, pin_io):
    """(registers, canonical lags) from networkx's network simplex.

    The dual of the min-register LP, built with a mirror for *every*
    driver: each mirror supplies a unit, each driver demands one.
    """
    nx = pytest.importorskip("networkx")
    flow_graph = nx.MultiDiGraph()

    def arc(src, dst, cost):  # ρ(dst) − ρ(src) ≤ cost
        flow_graph.add_edge(src, dst, weight=cost)

    longest = {}
    for e in edges:
        arc(e.head, e.tail, e.weight - (e.via_nets[0] in covered))
        longest[e.tail] = max(longest.get(e.tail, 0), e.weight)
    for e in edges:
        arc(("mirror", e.tail), e.head, longest[e.tail] - e.weight)
    nodes = {e.tail for e in edges} | {e.head for e in edges}
    if pin_io:
        for n in _io_nodes(graph, nodes):
            arc("host", n, 0)
            arc(n, "host", 0)
    for node in list(flow_graph.nodes):
        flow_graph.nodes[node]["demand"] = 0
    for u in longest:  # networkx's demand is minus the supply
        flow_graph.nodes[u]["demand"] += 1
        flow_graph.nodes[("mirror", u)]["demand"] -= 1
    cost, flow = nx.network_simplex(flow_graph)
    # The greatest solution ≤ 0 of the optimal flow's residual network:
    # every arc, and the reverse of each arc that carries flow.
    residual = []
    for src, dst, key, c in flow_graph.edges(keys=True, data="weight"):
        residual.append((dst, src, c))
        if flow[src][dst][key]:
            residual.append((src, dst, -c))
    lag, cycle = bellman_ford_constraints(list(flow_graph.nodes), residual)
    assert cycle is None
    registers = sum(longest.values()) - cost
    return registers, {n: lag[n] for n in nodes}


@pytest.mark.parametrize("pin_io", [False, True])
def test_networkx_finds_the_same_minimum(cut_problem, pin_io):
    netlist, graph, edges, cuts = cut_problem
    sol = _check_against_coverage(graph, edges, cuts, pin_io)
    registers, rho = _networkx_minimum(graph, edges, sol.covered_cuts, pin_io)
    assert sol.registers == registers
    assert sol.retiming.rho == rho


def test_prediction_is_what_apply_retiming_emits(cut_problem):
    """(c) on the PO-sink graph: the predicted count is the netlist's."""
    netlist, graph, edges, cuts = cut_problem
    for pin_io in (False, True):
        sol = solve_cut_retiming(graph, cuts, edges=edges, pin_io=pin_io)
        retimed = apply_retiming(netlist, sol.retiming.rho)
        emitted = sum(1 for _ in retimed.netlist.dff_cells())
        assert sol.registers == retimed.n_registers_after == emitted
