"""Oracles on the area step: the lags of least emitted area.

:func:`solve_cut_retiming` returns the greatest legal lags ≤ 0 that
minimise 10 units per register ``apply_retiming`` emits plus 14 per
dropped cut net.  Each oracle checks that against something the solver
did not compute:

* (a) a brute-force greatest minimiser over a box of lags, on every
  netlist of a tiny family, and around the solver's lags on random
  feedback circuits;
* (b) networkx's network simplex on a min-cost flow dual this file
  builds itself, slack nodes included;
* (c) the register count recounted from the edge list, and on the
  PO-sink graph the count and DFFs ``apply_retiming`` emits;
* (d) never more area than the unretimed lags, no more free than with
  ``pin_io``, and a legal minimal cover;
* (e) the production descent equals the network-simplex twin bit for
  bit on the kernel-equivalence set.
"""

from itertools import combinations, product

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import MercedConfig, load_circuit
from repro.circuits.generator import generate_circuit
from repro.circuits.profiles import CircuitProfile
from repro.corpus import (
    TREND_SPECS,
    generate_corpus_circuit,
    load_corpus_circuit,
)
from repro.corpus.fuzz import pipeline_fingerprint
from repro.graphs import SCCIndex, build_circuit_graph, register_weighted_edges
from repro.graphs.build import is_po_node
from repro.graphs.digraph import NodeKind
from repro.netlist import parse_bench
from repro.netlist.bench import write_bench
from repro.partition import assign_cbit, make_group
from repro.retiming import apply_retiming
from repro.retiming.registers import (
    emitted_area,
    least_area_lags,
    least_area_lags_reference,
)
from repro.retiming.solve import (
    bellman_ford_constraints,
    solve_cut_retiming,
    solve_cut_retiming_reference,
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


def _dropped(edges, cuts, rho):
    """Cut nets with a requirement edge that holds no register."""
    return {
        e.via_nets[0]
        for e in edges
        if e.via_nets[0] in cuts
        and e.weight + rho.get(e.head, 0) - rho.get(e.tail, 0) < 1
    }


def _area(edges, cuts, rho):
    """10 units per register plus 14 per dropped cut, from the edge list."""
    return 10 * _registers(edges, rho) + 14 * len(_dropped(edges, cuts, rho))


def _box_optimum(edges, cuts, io, values):
    """The least area over every legal lag vector drawn from ``values``,
    and the greatest vector attaining it.

    ``values[x]`` lists the lags variable ``x`` may take; the PIs and PO
    sinks in ``io`` share the variable ``"host"``.  Returns ``(area,
    lags)``, or ``None`` when no vector is legal.  A partial vector is
    abandoned as soon as a legality constraint between assigned
    variables fails.
    """
    nodes = sorted({e.tail for e in edges} | {e.head for e in edges})
    var = {n: "host" if n in io else n for n in nodes}
    names = sorted(set(var.values()))
    pos = {x: i for i, x in enumerate(names)}
    checks = [[] for _ in names]  # (i, j, c): lag[i] − lag[j] ≤ c
    for e in edges:
        i, j = pos[var[e.tail]], pos[var[e.head]]
        checks[max(i, j)].append((i, j, e.weight))
    lag = [0] * len(names)
    best = None

    def assign(k):
        nonlocal best
        if k == len(names):
            rho = {n: lag[pos[var[n]]] for n in nodes}
            area = _area(edges, cuts, rho)
            if best is None or area < best[0]:
                best = (area, rho)
            elif area == best[0]:
                best = (area, {n: max(rho[n], best[1][n]) for n in nodes})
            return
        for value in values[names[k]]:
            lag[k] = value
            if all(lag[i] - lag[j] <= c for i, j, c in checks[k]):
                assign(k + 1)

    assign(0)
    return best


def _check(graph, edges, cuts, pin_io):
    """(c) and (d) on one solve; returns the solution."""
    sol = solve_cut_retiming(graph, cuts, edges=edges, pin_io=pin_io)
    assert verify_drop_set(graph, cuts, sol, edges=edges) is None
    rho = sol.retiming.rho
    assert sol.registers == _registers(edges, rho)
    assert sol.dropped_cuts == _dropped(edges, set(cuts), rho)
    area = emitted_area(sol.registers, len(sol.dropped_cuts))
    assert area == _area(edges, set(cuts), rho)
    assert area <= _area(edges, set(cuts), {})
    if pin_io:
        io = _io_nodes(graph, rho)
        assert len({rho[n] for n in io}) <= 1
    else:
        pinned = solve_cut_retiming(graph, cuts, edges=edges, pin_io=True)
        assert area <= emitted_area(
            pinned.registers, len(pinned.dropped_cuts)
        )
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
    """The solver's lags are the greatest least-area point of the box
    [−4, 0]^V, and they lie in it: with or without ``pin_io``, with no
    cut and with every net cut."""
    box = range(-4, 1)
    cases = 0
    for netlist in _tiny_netlists():
        graph = build_circuit_graph(netlist, with_po_nodes=True)
        edges = register_weighted_edges(graph)
        nets = sorted({e.via_nets[0] for e in edges})
        for pin_io, cuts in product((False, True), ([], nets)):
            sol = _check(graph, edges, cuts, pin_io)
            rho = sol.retiming.rho
            assert all(lag in box for lag in rho.values())
            nodes = sorted(rho)
            io = _io_nodes(graph, nodes) if pin_io else set()
            values = {n: box for n in nodes}
            values["host"] = box
            area, lags = _box_optimum(edges, set(cuts), io, values)
            described = _describe(netlist, cuts, pin_io)
            assert emitted_area(
                sol.registers, len(sol.dropped_cuts)
            ) == area, described
            assert rho == lags, described
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
def test_no_lags_next_to_the_solution_emit_less_area(nl, pin_io, data):
    """Brute force over two boxes around the solver's lags ρ.

    The objective and constraints are L♮-convex (differences of lags; a
    driver's chain and a cut's drop are maxima of them), so ρ is a global
    minimum when nothing in ρ + {−1, 0, 1}^V does better, and it is the
    greatest minimum ≤ 0 when nothing else in ρ + {0, 1}^V that stays
    ≤ 0 does as well: the midpoints between ρ and a greater minimum are
    minima too.  The first box fixes one lag, since a uniform shift
    changes no weight.
    """
    graph = build_circuit_graph(nl, with_po_nodes=True)
    edges = register_weighted_edges(graph)
    nets = sorted({e.via_nets[0] for e in edges})
    cuts = data.draw(
        st.lists(st.sampled_from(nets), unique=True), label="cuts"
    )
    sol = _check(graph, edges, cuts, pin_io)
    rho = sol.retiming.rho
    area = emitted_area(sol.registers, len(sol.dropped_cuts))
    nodes = sorted(rho)
    io = _io_nodes(graph, nodes) if pin_io else set()
    host = rho[min(io)] if io else 0
    values = {n: (rho[n] - 1, rho[n], rho[n] + 1) for n in nodes}
    values["host"] = (host - 1, host, host + 1)
    first = "host" if nodes[0] in io else nodes[0]
    values[first] = values[first][1:2]
    assert _box_optimum(edges, set(cuts), io, values)[0] == area
    up = {n: tuple(v for v in (rho[n], rho[n] + 1) if v <= 0) for n in nodes}
    up["host"] = tuple(v for v in (host, host + 1) if v <= 0)
    assert _box_optimum(edges, set(cuts), io, up) == (area, rho)
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


def _networkx_minimum(graph, edges, cuts, pin_io):
    """(area, canonical lags) from networkx's network simplex.

    The dual of the least-area LP in units of 2, built with a mirror for
    *every* driver: each mirror supplies 5, each driver demands 5, each
    cut net's driver supplies 7 more and its slack node demands 7.
    """
    nx = pytest.importorskip("networkx")
    flow_graph = nx.MultiDiGraph()

    def arc(src, dst, cost):  # x(dst) − x(src) ≤ cost
        flow_graph.add_edge(src, dst, weight=cost)

    supply = {}

    def supplies(node, units):
        supply[node] = supply.get(node, 0) + units

    longest = {}
    for e in edges:
        arc(e.head, e.tail, e.weight)
        longest[e.tail] = max(longest.get(e.tail, 0), e.weight)
    for e in edges:
        arc(("mirror", e.tail), e.head, longest[e.tail] - e.weight)
    for u in longest:
        supplies(("mirror", u), 5)
        supplies(u, -5)
    for e in edges:
        net = e.via_nets[0]
        if net in cuts:
            arc(e.head, ("slack", net), e.weight - 1)
            if ("slack", net) not in supply:
                arc(e.tail, ("slack", net), 0)
                supplies(e.tail, 7)
                supplies(("slack", net), -7)
    nodes = {e.tail for e in edges} | {e.head for e in edges}
    if pin_io:
        for n in _io_nodes(graph, nodes):
            arc("host", n, 0)
            arc(n, "host", 0)
    for node in flow_graph.nodes:  # networkx's demand is minus the supply
        flow_graph.nodes[node]["demand"] = -supply.get(node, 0)
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
    area = 2 * (5 * sum(longest.values()) - cost)
    return area, {n: lag[n] for n in nodes}


@pytest.mark.parametrize("pin_io", [False, True])
def test_networkx_finds_the_same_minimum(cut_problem, pin_io):
    netlist, graph, edges, cuts = cut_problem
    sol = _check(graph, edges, cuts, pin_io)
    area, rho = _networkx_minimum(graph, edges, set(cuts), pin_io)
    assert emitted_area(sol.registers, len(sol.dropped_cuts)) == area
    assert sol.retiming.rho == rho


def test_prediction_is_what_apply_retiming_emits(cut_problem):
    """(c) on the PO-sink graph: the predicted count is the netlist's."""
    netlist, graph, edges, cuts = cut_problem
    for pin_io in (False, True):
        sol = solve_cut_retiming(graph, cuts, edges=edges, pin_io=pin_io)
        retimed = apply_retiming(netlist, sol.retiming.rho)
        emitted = sum(1 for _ in retimed.netlist.dff_cells())
        assert sol.registers == retimed.n_registers_after == emitted


# ---------------------------------------------------------------------------
# (e) production = twin on the kernel-equivalence set
# ---------------------------------------------------------------------------
def _assert_twin_identical(netlist, lk):
    graph = build_circuit_graph(netlist, with_po_nodes=False)
    cuts = pipeline_fingerprint(netlist, lk)["cut_nets"]
    for pin_io in (False, True):
        sol = solve_cut_retiming(graph, cuts, pin_io=pin_io)
        ref = solve_cut_retiming_reference(graph, cuts, pin_io=pin_io)
        assert sol.retiming.rho == ref.retiming.rho
        assert sol.registers == ref.registers
        assert sol.covered_cuts == ref.covered_cuts
        assert sol.dropped_cuts == ref.dropped_cuts
        assert sol.unconstrained_cuts == ref.unconstrained_cuts


def test_area_kernels_agree_on_every_s27_net():
    edges = register_weighted_edges(
        build_circuit_graph(load_circuit("s27"), with_po_nodes=True)
    )
    cuts = {e.via_nets[0] for e in edges}
    rho, registers, steps = least_area_lags(edges, cuts)
    twin_rho, twin_registers, pivots = least_area_lags_reference(edges, cuts)
    assert (rho, registers) == (twin_rho, twin_registers)
    assert steps >= 1 and pivots >= 1


@pytest.mark.parametrize("name", ["s27", "s420.1", "s510", "s641"])
@pytest.mark.parametrize("lk", [8, 16])
def test_descent_equals_the_simplex_twin_bundled(name, lk):
    _assert_twin_identical(load_circuit(name), lk)


def test_descent_equals_the_simplex_twin_corpus():
    _assert_twin_identical(load_corpus_circuit("corpus-ff400"), 16)


@given(
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=15, max_value=40),
    st.integers(min_value=7, max_value=16),
    st.integers(min_value=0, max_value=99),
)
@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_descent_equals_the_simplex_twin_random(n_dffs, n_gates, lk, seed):
    profile = CircuitProfile(
        name=f"twin{seed}",
        n_inputs=3,
        n_dffs=n_dffs,
        n_gates=n_gates,
        n_inverters=2,
        paper_area=2 * n_gates + 2 + 10 * n_dffs,
        dffs_on_scc=n_dffs // 2,
        n_outputs=2,
    )
    _assert_twin_identical(generate_circuit(profile, seed=seed), lk)
