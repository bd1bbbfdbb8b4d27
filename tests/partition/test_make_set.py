"""Make_Set / modified DFS (Tables 5–7): cut decisions and SCC budgets."""

import pytest

from repro.graphs import NodeKind, SCCIndex, build_circuit_graph, compile_graph
from repro.partition import CutState, make_set
from repro.partition.make_set import make_set_reference


def set_dist(graph, name, d):
    """Write ``d(e)`` of net ``name`` where saturation would leave it."""
    cg = compile_graph(graph)
    cg.dist[cg.net_id[name]] = d


def dist_of(graph, name):
    cg = compile_graph(graph)
    return cg.dist[cg.net_id[name]]


@pytest.fixture
def ring_state(ring_graph):
    return CutState(ring_graph, SCCIndex(ring_graph), beta=50)


class TestCutDecisions:
    def test_low_distance_net_traversable(self, ring_graph, ring_state):
        net = ring_graph.net("g1")
        set_dist(ring_graph, "g1", 1.0)
        assert ring_state.traversable(net, boundary=5.0)
        assert not ring_state.cut

    def test_high_distance_net_cut(self, ring_graph, ring_state):
        net = ring_graph.net("g1")
        set_dist(ring_graph, "g1", 9.0)
        assert not ring_state.traversable(net, boundary=5.0)
        assert "g1" in ring_state.cut

    def test_register_sourced_net_is_free_boundary(self, ring_graph, ring_state):
        net = ring_graph.net("q1")  # sourced by DFF q1
        set_dist(ring_graph, "q1", 100.0)
        assert not ring_state.traversable(net, boundary=5.0)
        assert "q1" not in ring_state.cut  # boundary, not a cut

    def test_cut_decision_sticky(self, ring_graph, ring_state):
        net = ring_graph.net("g1")
        set_dist(ring_graph, "g1", 9.0)
        ring_state.traversable(net, boundary=5.0)
        # once cut, stays cut even below later boundaries
        assert not ring_state.traversable(net, boundary=50.0)

    def test_scc_budget_charged(self, ring_graph, ring_state):
        net = ring_graph.net("g1")
        set_dist(ring_graph, "g1", 9.0)
        ring_state.traversable(net, boundary=5.0)
        assert ring_state.scc_cuts[0] == 1

    def test_budget_exhaustion_forces_traversal(self, ring_graph):
        """Eq. 6 with β=1, f=2: the third SCC cut is denied."""
        state = CutState(ring_graph, SCCIndex(ring_graph), beta=1)
        for name in ["g1", "g2"]:
            set_dist(ring_graph, name, 9.0)
        assert not state.traversable(ring_graph.net("g1"), 5.0)
        assert not state.traversable(ring_graph.net("g2"), 5.0)
        # budget (β×f = 2... wait f=2 registers, β=1 → budget 2) is now full;
        # a third internal net cannot be cut.
        # ring has only g1, g2 as comb-sourced internal nets, so craft the
        # denial by lowering beta below the charges:
        state2 = CutState(ring_graph, SCCIndex(ring_graph), beta=1)
        state2.scc_cuts[0] = 2  # budget pre-exhausted
        net = ring_graph.net("g1")
        set_dist(ring_graph, "g1", 9.0)
        assert state2.traversable(net, 5.0)  # forced traversable
        assert state2.budget_exhaustions == 1
        assert "g1" in state2.forced

    def test_forced_nets_pinned_to_zero_distance(self, ring_graph):
        state = CutState(ring_graph, SCCIndex(ring_graph), beta=1)
        state.scc_cuts[0] = 2
        set_dist(ring_graph, "g1", 9.0)
        set_dist(ring_graph, "g2", 3.0)
        state.traversable(ring_graph.net("g1"), 5.0)
        assert dist_of(ring_graph, "g2") == 0.0  # pinned (Table 7 2.1.2.1)

    def test_off_scc_net_cut_without_budget(self, pipeline):
        from repro.graphs import build_circuit_graph

        g = build_circuit_graph(pipeline, with_po_nodes=False)
        state = CutState(g, SCCIndex(g), beta=1)
        net = g.net("g1")
        set_dist(g, "g1", 9.0)
        assert not state.traversable(net, 5.0)
        assert "g1" in state.cut
        assert len(state.cut) == 1


class TestMakeSet:
    def test_no_cuts_single_component(self, ring_graph):
        state = CutState(ring_graph, SCCIndex(ring_graph), beta=50)
        groups = make_set(
            ring_graph,
            ["g1", "q1", "g2", "q2", "tail"],
            boundary=100.0,
            state=state,
        )
        # register-sourced nets are boundaries, so q1/q2 outputs split
        # the ring into {g1,q1} and {g2,q2,tail}-ish components connected
        # via comb nets g1->q1 (traversable), g2->q2, g2->tail
        merged = [g for g in groups if len(g) > 1]
        assert sum(len(g) for g in groups) == 5

    def test_inputs_excluded(self, ring_graph):
        state = CutState(ring_graph, SCCIndex(ring_graph), beta=50)
        groups = make_set(
            ring_graph, ["a", "g1", "q1"], boundary=100.0, state=state
        )
        assert all("a" not in g for g in groups)

    @pytest.mark.parametrize("kernel", [make_set, make_set_reference])
    def test_iterator_input_matches_list(self, s27_graph, kernel):
        nodes = [
            n
            for n in s27_graph.nodes()
            if s27_graph.kind(n) is not NodeKind.INPUT
        ]
        groups = {}
        for label, given in (("list", nodes), ("iter", iter(nodes))):
            state = CutState(s27_graph, SCCIndex(s27_graph), beta=50)
            groups[label] = kernel(s27_graph, given, 100.0, state)
        assert groups["iter"] == groups["list"]

    def test_reference_twin_identical(self, s27_graph):
        from repro.graphs import NodeKind
        from repro.partition.make_set import make_set_reference

        nodes = [
            n
            for n in s27_graph.nodes()
            if s27_graph.kind(n) is not NodeKind.INPUT
        ]
        state1 = CutState(s27_graph, SCCIndex(s27_graph), beta=50)
        compiled = make_set(s27_graph, nodes, 100.0, state1)
        state2 = CutState(s27_graph, SCCIndex(s27_graph), beta=50)
        reference = make_set_reference(s27_graph, nodes, 100.0, state2)
        assert compiled == reference
        assert state1.cut == state2.cut

    def test_deterministic_grouping(self, s27_graph):
        from repro.graphs import NodeKind

        nodes = [
            n
            for n in s27_graph.nodes()
            if s27_graph.kind(n) is not NodeKind.INPUT
        ]
        state1 = CutState(s27_graph, SCCIndex(s27_graph), beta=50)
        g1 = make_set(s27_graph, nodes, 100.0, state1)
        state2 = CutState(s27_graph, SCCIndex(s27_graph), beta=50)
        g2 = make_set(s27_graph, nodes, 100.0, state2)
        assert [sorted(x) for x in g1] == [sorted(x) for x in g2]

    def test_cut_splits_components(self, pipeline):
        g = build_circuit_graph(pipeline, with_po_nodes=False)
        state = CutState(g, SCCIndex(g), beta=50)
        set_dist(g, "b", 0.5)  # PI net; irrelevant
        set_dist(g, "g1", 9.0)  # cut candidate
        groups = make_set(
            g, ["g1", "q1", "g2", "q2", "g3"], boundary=5.0, state=state
        )
        owner = {}
        for i, grp in enumerate(groups):
            for n in grp:
                owner[n] = i
        # g1 -> q1 net cut, and q-sourced nets are boundaries anyway:
        assert state.cut == {"g1"}
        assert owner["g1"] != owner["q1"]
        assert owner["g1"] != owner["g2"]
