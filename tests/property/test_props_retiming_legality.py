"""Property tests: retiming legality on *random* sequential circuits.

Two halves of the paper's legality story (Corollaries 2/3):

* for every retiming ``solve.py`` produces, the register count of every
  cycle is invariant (Corollary 2) — checked on cycles sampled from the
  register-weighted graph of random circuits with real feedback;
* ``legality.py``/``model.py`` accept exactly the retimings the solver
  produces: the solver's ρ round-trips through ``apply_retiming`` and is
  re-inferred by the verifier, while a ρ that drives any connection's
  register count negative is rejected by both the edge algebra
  (``illegal_edges``) and the applier (``IllegalRetimingError``).

Random circuits come from a ``.bench``-text strategy that allows DFF
inputs to reference *later* gates, so — unlike the topological-order
strategy in ``test_props_netlist`` — these netlists contain genuine
sequential feedback loops for Corollary 2 to bite on.
"""

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.errors import IllegalRetimingError, RetimingError
from repro.graphs import build_circuit_graph, register_weighted_edges
from repro.netlist import parse_bench
from repro.retiming import apply_retiming, infer_retiming
from repro.retiming.model import illegal_edges
from repro.retiming.solve import solve_cut_retiming

GATES = ["AND", "NAND", "OR", "NOR", "XOR"]


@st.composite
def feedback_netlists(draw):
    """Random synchronous netlists whose DFFs may close feedback loops.

    Gates read only earlier gates / PIs / any DFF output, and DFFs read
    only gates or PIs (never other DFFs) — so every cycle crosses a DFF
    (no combinational cycles) and no pure register ring exists.
    """
    n_inputs = draw(st.integers(min_value=1, max_value=3))
    n_gates = draw(st.integers(min_value=2, max_value=12))
    n_dffs = draw(st.integers(min_value=1, max_value=4))
    pis = [f"pi{i}" for i in range(n_inputs)]
    gates = [f"g{i}" for i in range(n_gates)]
    dffs = [f"q{i}" for i in range(n_dffs)]
    lines = [f"INPUT({pi})" for pi in pis]
    for i, g in enumerate(gates):
        pool = pis + gates[:i] + dffs
        gtype = draw(st.sampled_from(GATES))
        n_pins = draw(st.integers(min_value=2, max_value=3))
        pins = [pool[draw(st.integers(0, len(pool) - 1))] for _ in range(n_pins)]
        lines.append(f"{g} = {gtype}({', '.join(pins)})")
    for q in dffs:
        pool = gates + pis  # gates may be *later* ⇒ feedback loops
        src = pool[draw(st.integers(0, len(pool) - 1))]
        lines.append(f"{q} = DFF({src})")
    lines.append(f"OUTPUT({gates[-1]})")
    nl = parse_bench("\n".join(lines) + "\n", name="feedback_random")
    nl.validate()
    return nl


def _sample_cycles(edges, limit=8):
    """Up to ``limit`` cycles (edge lists) of the weighted-edge graph."""
    adj = {}
    for e in edges:
        adj.setdefault(e.tail, []).append(e)
    cycles, state, stack = [], {}, []

    def dfs(node):
        state[node] = "open"
        stack.append(node)
        for e in adj.get(node, ()):
            if len(cycles) >= limit:
                break
            if state.get(e.head) == "open":
                i = stack.index(e.head)
                path = stack[i:] + [e.head]
                cycles.append(
                    [
                        next(
                            x
                            for x in adj[path[j]]
                            if x.head == path[j + 1]
                        )
                        for j in range(len(path) - 1)
                    ]
                )
            elif e.head not in state:
                dfs(e.head)
        stack.pop()
        state[node] = "done"

    for e in edges:
        if e.tail not in state:
            dfs(e.tail)
        if len(cycles) >= limit:
            break
    return cycles


@given(feedback_netlists(), st.data())
@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.filter_too_much],
)
def test_solver_retimings_keep_cycle_register_counts(nl, data):
    """Corollary 2: every cycle's register count survives solve.py's ρ."""
    graph = build_circuit_graph(nl, with_po_nodes=False)
    before = register_weighted_edges(graph)
    cycles = _sample_cycles(before)
    assume(cycles)  # only feedback circuits are interesting here
    nets = sorted({e.via_nets[0] for e in before})
    cuts = data.draw(
        st.lists(st.sampled_from(nets), max_size=4, unique=True), label="cuts"
    )
    solution = solve_cut_retiming(graph, cuts)
    retimed = apply_retiming(nl, solution.retiming.rho)
    after_edges = register_weighted_edges(
        build_circuit_graph(retimed.netlist, with_po_nodes=False)
    )
    # parallel connections (same driver read on several pins, some via
    # registers) all shift by the same ρ(head) − ρ(tail), so the MIN
    # weight per (tail, head) pair is a well-defined representative on
    # both sides and cycle sums over it telescope exactly (Corollary 2).
    before_weight: dict = {}
    for e in before:
        key = (e.tail, e.head)
        before_weight[key] = min(before_weight.get(key, e.weight), e.weight)
    after_weight: dict = {}
    for e in after_edges:
        key = (e.tail, e.head)
        after_weight[key] = min(after_weight.get(key, e.weight), e.weight)
    for cycle in cycles:
        pairs = [(e.tail, e.head) for e in cycle]
        w_before = sum(before_weight[p] for p in pairs)
        w_after = sum(after_weight[p] for p in pairs)
        assert w_after == w_before, (
            f"cycle {[e.tail for e in cycle]} register count changed "
            f"{w_before} -> {w_after}"
        )


@given(feedback_netlists(), st.data())
@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.filter_too_much],
)
def test_legality_accepts_solver_retimings(nl, data):
    """The verifier re-infers exactly the ρ the solver produced."""
    graph = build_circuit_graph(nl, with_po_nodes=True)
    edges = register_weighted_edges(graph)
    nets = sorted({e.via_nets[0] for e in edges})
    cuts = data.draw(
        st.lists(st.sampled_from(nets), max_size=4, unique=True), label="cuts"
    )
    solution = solve_cut_retiming(graph, cuts)
    solution.retiming.assert_legal()  # model-level acceptance
    retimed = apply_retiming(nl, solution.retiming.rho)
    infer_retiming(nl, retimed.netlist)  # netlist-level acceptance
    # and the observed register redistribution is *exactly* the solver's
    # ρ: every cell-to-cell connection moved by ρ(head) − ρ(tail)
    from repro.retiming import connection_deltas

    rho = solution.retiming.rho
    for tail, head, dk in connection_deltas(nl, retimed.netlist):
        assert dk == rho.get(head, 0) - rho.get(tail, 0), (
            f"connection {tail}->{head} moved {dk}, solver ρ implies "
            f"{rho.get(head, 0) - rho.get(tail, 0)}"
        )


@given(feedback_netlists())
@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.filter_too_much],
)
def test_negative_weight_rho_is_rejected_everywhere(nl):
    """A ρ that starves any connection is rejected by model and applier."""
    graph = build_circuit_graph(nl, with_po_nodes=False)
    edges = register_weighted_edges(graph)
    direct = next(
        (e for e in edges if e.weight == 0 and e.tail != e.head), None
    )
    assume(direct is not None)
    rho = {direct.tail: 1}  # w_ρ = 0 + ρ(head) − ρ(tail) = −1
    assert illegal_edges(edges, rho)
    try:
        apply_retiming(nl, rho)
    except IllegalRetimingError:
        pass
    else:
        raise AssertionError(
            f"apply_retiming accepted a ρ that drives "
            f"{direct.tail}->{direct.head} to −1 registers"
        )


@given(feedback_netlists())
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.filter_too_much],
)
def test_verifier_rejects_register_count_tampering(nl):
    """Adding a register on one cycle edge trips the Corollary 2 check.

    The tamper preserves the combinational structure exactly (same
    cells, same traced drivers) and only bumps one cycle connection's
    register count by 1 — precisely the inconsistency
    ``infer_retiming`` exists to refute: no potential ρ can explain a
    cycle whose total register count changed.
    """
    from repro.netlist import write_bench

    graph = build_circuit_graph(nl, with_po_nodes=False)
    edges = register_weighted_edges(graph)
    cycles = _sample_cycles(edges)
    edge = next(
        (
            e
            for cycle in cycles
            for e in cycle
            if e.weight == 0 and e.tail != e.head
        ),
        None,
    )
    assume(edge is not None)
    tail, head = edge.tail, edge.head
    lines, spliced = [], False
    for line in write_bench(nl).splitlines():
        stripped = line.strip()
        if stripped.startswith(f"{head} ="):
            gate, _, args = stripped.partition("(")
            pins = [p.strip() for p in args.rstrip(")").split(",")]
            assume(tail in pins)  # direct (unregistered) reference
            pins = [f"{tail}__d" if p == tail else p for p in pins]
            lines.append(f"{tail}__d = DFF({tail})")
            lines.append(f"{gate}({', '.join(pins)})")
            spliced = True
        else:
            lines.append(line)
    assume(spliced)
    tampered = parse_bench("\n".join(lines) + "\n", name="tampered")
    tampered.validate()
    try:
        infer_retiming(nl, tampered)
    except RetimingError as exc:
        assert "Corollary 2" in str(exc) or "inconsistent" in str(exc)
    else:
        raise AssertionError(
            f"verifier accepted an extra register on cycle edge "
            f"{tail}->{head}"
        )
