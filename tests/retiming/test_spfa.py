"""The production solver's SPFA against the dense reference.

Each cycle-cancelling round of :func:`max_coverage_retiming` is one
:func:`_spfa` over the residual network.  Its contract: on a feasible
system it lands on the same fixed point as
:func:`bellman_ford_constraints` (the greatest one below the all-zero
start, whatever the relaxation order); on an infeasible one it returns
the arcs of a cycle of negative total cost, found by the
predecessor-graph walk.  Random systems cover the dense regime; starved
rings with idle padding force long runs, so the walk fires many times
before the cycle shows.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.retiming.solve import _spfa, bellman_ford_constraints


@st.composite
def constraint_systems(draw):
    """Random difference-constraint systems, feasible and not."""
    n = draw(st.integers(min_value=2, max_value=10))
    m = draw(st.integers(min_value=1, max_value=25))
    cons = []
    for _ in range(m):
        u = draw(st.integers(min_value=0, max_value=n - 1))
        v = draw(st.integers(min_value=0, max_value=n - 1))
        c = draw(st.integers(min_value=-3, max_value=4))
        cons.append((u, v, c))
    return n, cons


@st.composite
def starved_rings(draw):
    """A register-starved cycle plus idle padding: long infeasible runs."""
    cycle_len = draw(st.integers(min_value=3, max_value=9))
    pad = draw(st.integers(min_value=40, max_value=90))
    deficit_at = draw(st.integers(min_value=0, max_value=cycle_len - 1))
    cons = [
        (i, (i + 1) % cycle_len, -1 if i == deficit_at else 0)
        for i in range(cycle_len)
    ]
    for j in range(pad):
        anchor = draw(st.integers(min_value=0, max_value=cycle_len - 1))
        cons.append((cycle_len + j, anchor, draw(st.integers(5, 9))))
    return cycle_len + pad, cons, cycle_len


def _run_spfa(n, cons):
    """``x_u − x_v ≤ c`` is the arc ``v → u`` of cost ``c``."""
    out = [[] for _ in range(n)]
    for r, (_u, v, _c) in enumerate(cons):
        out[v].append(r)
    r_src = [v for _u, v, _c in cons]
    r_dst = [u for u, _v, _c in cons]
    r_cost = [c for _u, _v, c in cons]
    return _spfa(n, out, r_src, r_dst, r_cost, list(range(n)))


def _assert_negative_cycle(cons, cycle):
    assert cycle, "an infeasible system must yield a cycle"
    # consecutive arcs chain head to tail (the walk lists them backwards)
    for r, nxt in zip(cycle, cycle[1:] + cycle[:1]):
        assert cons[nxt][0] == cons[r][1]
    assert sum(cons[r][2] for r in cycle) < 0


def _reference(n, cons):
    return bellman_ford_constraints(list(range(n)), cons)


@given(constraint_systems())
@settings(max_examples=300, deadline=None)
def test_feasible_fixed_point_matches_reference(system):
    n, cons = system
    ref_dist, _ = _reference(n, cons)
    dist, cycle, _relaxations = _run_spfa(n, cons)
    if ref_dist is None:
        assert dist is None
        _assert_negative_cycle(cons, cycle)
    else:
        assert cycle is None
        assert dist == [ref_dist[i] for i in range(n)]


@given(starved_rings())
@settings(max_examples=60, deadline=None)
def test_starved_ring_yields_its_negative_cycle(system):
    n, cons, cycle_len = system
    assert _reference(n, cons)[0] is None
    dist, cycle, _relaxations = _run_spfa(n, cons)
    assert dist is None
    _assert_negative_cycle(cons, cycle)
    # padding nodes have no out-arcs: the ring is the only cycle
    assert sorted(cycle) == list(range(cycle_len))


def test_walk_fires_after_n_relaxations():
    """A fixed starved ring: the cycle is reported by a walk, not by the
    queue running dry, and soon after it forms."""
    cycle_len, pad = 5, 64
    n = cycle_len + pad
    cons = [(i, (i + 1) % cycle_len, -1 if i == 0 else 0)
            for i in range(cycle_len)]
    cons += [(cycle_len + j, j % cycle_len, 7) for j in range(pad)]
    dist, cycle, relaxations = _run_spfa(n, cons)
    assert dist is None
    assert sorted(cycle) == list(range(cycle_len))
    assert n <= relaxations < 3 * n
