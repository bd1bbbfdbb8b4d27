"""Interned replay vs dense reference on *infeasible* systems.

The kernel-equivalence suite already proves the compiled pipeline ends
bit-identical to the reference; these properties pin down the layer that
makes that possible: :func:`_bf_rounds` must reproduce the reference's
*canonical negative cycle* — the thing that decides which cut gets
dropped each round — and the SPFA feasibility kernel must land on the
same unique fixed point.  Random systems cover the dense regime; the
structured generators force systems long enough that the replay's
periodic fast-forward (history-ring verification + analytic jump)
actually engages, so the jump path itself is property-tested instead of
only the pass-by-pass path.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.retiming.solve import (
    _bf_rounds,
    _spfa_feasible,
    bellman_ford_constraints,
)


@st.composite
def constraint_systems(draw):
    """Random difference-constraint systems, feasible and not."""
    n = draw(st.integers(min_value=2, max_value=10))
    m = draw(st.integers(min_value=1, max_value=25))
    cons = []
    for _ in range(m):
        u = draw(st.integers(min_value=0, max_value=n - 1))
        v = draw(
            st.integers(min_value=0, max_value=n - 1).filter(lambda x: x != u)
        )
        c = draw(st.integers(min_value=-3, max_value=4))
        cons.append((u, v, c))
    return n, cons


def _reference(n, cons):
    nodes = [f"n{i}" for i in range(n)]
    named = [(f"n{u}", f"n{v}", c) for u, v, c in cons]
    return bellman_ford_constraints(nodes, named)


def _interned(cons):
    con_u = [u for u, _v, _c in cons]
    con_v = [v for _u, v, _c in cons]
    cost = [c for _u, _v, c in cons]
    return con_u, con_v, cost


def _csr(n, con_v):
    by_src = [[] for _ in range(n)]
    for ci, v in enumerate(con_v):
        by_src[v].append(ci)
    adj_start = [0] * (n + 1)
    adj_cons = []
    for v in range(n):
        adj_cons.extend(by_src[v])
        adj_start[v + 1] = len(adj_cons)
    return adj_start, adj_cons


@given(constraint_systems())
@settings(max_examples=200, deadline=None)
def test_replay_matches_reference_feasible_and_infeasible(system):
    """_bf_rounds returns the reference's dist or its *exact* cycle."""
    n, cons = system
    ref_dist, ref_cycle = _reference(n, cons)
    con_u, con_v, cost = _interned(cons)
    dist, cycle = _bf_rounds(n, con_u, con_v, cost)
    if ref_dist is not None:
        assert cycle is None
        assert dist == [ref_dist[f"n{i}"] for i in range(n)]
    else:
        assert dist is None
        assert cycle == ref_cycle


@given(constraint_systems())
@settings(max_examples=200, deadline=None)
def test_feasibility_kernels_match_reference_fixed_point(system):
    """SPFA lands on the unique fixed point whenever it claims
    feasibility, and never claims it on an infeasible system."""
    n, cons = system
    ref_dist, _ = _reference(n, cons)
    con_u, con_v, cost = _interned(cons)
    adj_start, adj_cons = _csr(n, con_v)
    spfa_dist, _relax = _spfa_feasible(n, adj_start, adj_cons, con_u, cost)
    if ref_dist is None:
        assert spfa_dist is None
    else:
        assert spfa_dist == [ref_dist[f"n{i}"] for i in range(n)]


@st.composite
def starved_rings(draw):
    """A register-starved cycle plus idle padding: long periodic tails.

    The cycle's total cost is negative (one unit short), so the replay
    grinds through its rotating firing pattern for all ``n`` reference
    passes; the padding nodes inflate ``n`` far beyond the period so the
    fast-forward has room to jump.
    """
    cycle_len = draw(st.integers(min_value=3, max_value=9))
    pad = draw(st.integers(min_value=40, max_value=90))
    deficit_at = draw(st.integers(min_value=0, max_value=cycle_len - 1))
    n = cycle_len + pad
    cons = []
    for i in range(cycle_len):
        c = -1 if i == deficit_at else 0
        cons.append((i, (i + 1) % cycle_len, c))
    # idle chain hanging off the cycle: large slack, never fires
    for j in range(pad):
        anchor = draw(st.integers(min_value=0, max_value=cycle_len - 1))
        cons.append((cycle_len + j, anchor, draw(st.integers(5, 9))))
    return n, cons


@given(starved_rings())
@settings(max_examples=60, deadline=None)
def test_fast_forward_reproduces_canonical_cycle(system):
    """On long starved rings the jump engages and the canonical cycle —
    hence the victim choice — is still bit-identical to the reference."""
    n, cons = system
    ref_dist, ref_cycle = _reference(n, cons)
    assert ref_dist is None, "generator must produce infeasible systems"
    con_u, con_v, cost = _interned(cons)
    counters = {}
    dist, cycle = _bf_rounds(n, con_u, con_v, cost, counters=counters)
    assert dist is None
    assert cycle == ref_cycle
    assert counters["jumps"] >= 1, "padding should force a periodic jump"


def test_fast_forward_jump_engages_deterministic():
    """A fixed starved ring documents the jump arithmetic end to end."""
    cycle_len, pad = 5, 64
    n = cycle_len + pad
    cons = [(i, (i + 1) % cycle_len, -1 if i == 0 else 0)
            for i in range(cycle_len)]
    cons += [(cycle_len + j, j % cycle_len, 7) for j in range(pad)]
    ref_dist, ref_cycle = _reference(n, cons)
    assert ref_dist is None
    con_u, con_v, cost = _interned(cons)
    counters = {}
    dist, cycle = _bf_rounds(n, con_u, con_v, cost, counters=counters)
    assert dist is None
    assert cycle == ref_cycle
    assert counters["jumps"] >= 1
    # the replay must simulate far fewer firings than the dense tail
    assert counters["firings"] < n * cycle_len
