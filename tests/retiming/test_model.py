"""Retiming algebra: Lemma 1, Corollaries 2/3."""

import pytest

from repro.errors import RetimingError
from repro.graphs import WeightedEdge, build_circuit_graph, register_weighted_edges
from repro.retiming import (
    Retiming,
    illegal_edges,
    retimed_path_registers,
    retimed_weight,
)


def edge(t, h, w):
    return WeightedEdge(t, h, w, (t,))


class TestLemma1:
    def test_edge_weight_shift(self):
        e = edge("u", "v", 2)
        assert retimed_weight(e, {"u": 1, "v": 0}) == 1
        assert retimed_weight(e, {"u": 0, "v": 3}) == 5
        assert retimed_weight(e, {}) == 2

    def test_path_telescopes(self):
        path = [edge("a", "b", 1), edge("b", "c", 0), edge("c", "d", 2)]
        rho = {"a": 5, "b": -2, "c": 7, "d": 6}
        # f_rho(p) = f(p) + rho(d) - rho(a) = 3 + 6 - 5
        assert retimed_path_registers(path, rho) == 4

    def test_disconnected_path_rejected(self):
        with pytest.raises(RetimingError):
            retimed_path_registers([edge("a", "b", 1), edge("c", "d", 0)], {})


class TestCorollary2:
    def test_cycle_register_count_invariant(self):
        cycle = [edge("a", "b", 1), edge("b", "c", 0), edge("c", "a", 2)]
        base = retimed_path_registers(cycle, {})
        for rho in ({"a": 3}, {"b": -1, "c": 4}, {"a": 1, "b": 1, "c": 1}):
            assert retimed_path_registers(cycle, rho) == base


class TestCorollary3:
    def test_legality(self):
        edges = [edge("a", "b", 1), edge("b", "a", 0)]
        assert not illegal_edges(edges, {})
        assert not illegal_edges(edges, {"a": 0, "b": -1})  # moves the register
        assert illegal_edges(edges, {"a": 0, "b": 1})  # b->a would go -1

    def test_illegal_edges_reported(self):
        edges = [edge("a", "b", 0), edge("b", "c", 5)]
        bad = illegal_edges(edges, {"b": 1})  # a->b becomes -1? no: w + rho(b) - rho(a) = 1
        assert bad == []
        bad = illegal_edges(edges, {"a": 1})
        assert [(e.tail, e.head) for e in bad] == [("a", "b")]


class TestRetimingObject:
    def test_assert_legal(self):
        r = Retiming(edges=(edge("a", "b", 0),), rho={"a": 1})
        with pytest.raises(RetimingError, match="illegal"):
            r.assert_legal()

    def test_identity(self):
        edges = [edge("a", "b", 3)]
        r = Retiming(edges=tuple(edges))
        r.assert_legal()
        assert r.shared_registers() == 3

    def test_shared_registers_count_one_chain_per_driver(self):
        """a's readers share one chain as long as the longest needs."""
        edges = (edge("a", "b", 3), edge("a", "c", 1), edge("b", "c", 0))
        assert Retiming(edges=edges).shared_registers() == 3
        assert Retiming(edges=edges, rho={"c": 4}).shared_registers() == 9

    def test_uniform_shift_invariant(self, ring_graph):
        edges = register_weighted_edges(ring_graph)
        r = Retiming(edges=tuple(edges), rho={"g1": 1})
        shifted = r.shifted(10)
        for e in edges:
            assert r.weight(e) == shifted.weight(e)
