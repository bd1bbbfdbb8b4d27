"""MoveEngine: legality prechecks, input counts after moves, undo fidelity."""

import pytest

from repro.circuits.library import load_circuit
from repro.config import MercedConfig
from repro.graphs import SCCIndex, build_circuit_graph
from repro.partition import assign_cbit, make_group
from repro.optimize import MoveEngine


def _pipeline(name="s510", **overrides):
    netlist = load_circuit(name)
    graph = build_circuit_graph(netlist, with_po_nodes=False)
    scc_index = SCCIndex(graph)
    config = MercedConfig(**overrides)
    group = make_group(graph, scc_index, config, strict=False)
    partition = assign_cbit(group.partition).partition
    return graph, scc_index, partition, config


@pytest.fixture(scope="module")
def s510():
    return _pipeline("s510")


def _first_legal_move(engine):
    for node in engine.movable_nodes():
        for cid in sorted(engine.clusters):
            if cid == engine.owner[node]:
                continue
            record = engine.try_move(node, cid)
            if record is not None:
                return record
    raise AssertionError("no legal move found on s510")


def _state(engine):
    return (
        {cid: (c.nodes, c.input_nets, c.input_count)
         for cid, c in engine.clusters.items()},
        dict(engine.owner),
        list(engine.cut),
        dict(engine.scc_cuts),
        engine.sigma,
    )


class TestInputCountCache:
    def test_moves_keep_input_count_fresh(self, s510):
        """A wrong ι after a membership swap would silently corrupt Σ
        (the CBIT type is read off it).  Every applied and undone move
        must leave every cluster's ``input_count`` equal to
        ``len(input_nets)`` and its input nets equal to a recount —
        checked here directly, by the full audit, and by
        ``Partition.validate``.
        """
        graph, scc_index, partition, config = s510
        engine = MoveEngine(graph, scc_index, partition, beta=config.beta)
        record = _first_legal_move(engine)
        for cl in engine.clusters.values():
            assert cl.input_count == len(cl.input_nets)
        engine.assert_consistent()
        engine.export_partition().validate()
        engine.undo(record)
        for cl in engine.clusters.values():
            assert cl.input_count == len(cl.input_nets)
        engine.assert_consistent()


class TestLegality:
    def test_rejected_move_leaves_state_untouched(self, s510):
        graph, scc_index, partition, config = s510
        engine = MoveEngine(graph, scc_index, partition, beta=config.beta)
        before = _state(engine)
        node = engine.movable_nodes()[0]
        assert engine.try_move(node, engine.owner[node]) is None  # no-op
        assert engine.try_move(node, 10**9) is None  # unknown cluster
        assert _state(engine) == before

    def test_iota_ratchet_allows_shrink_blocks_growth(self):
        """Oversized assign_cbit merges stay movable but can't grow.

        With a tight l_k and permissive merging the seed contains
        clusters with ι > l_k; the engine must still accept moves that
        only shrink them (floor = own current ι) while refusing to push
        any cluster past max(l_k, its ι before the move).
        """
        graph, scc_index, partition, config = _pipeline(
            "s510", seed=1996, lk=16, beta=1, min_visit=5
        )
        engine = MoveEngine(graph, scc_index, partition, beta=config.beta)
        ceiling = engine.iota_ceiling
        assert ceiling >= max(
            c.input_count for c in engine.clusters.values()
        )
        moved = 0
        for node in engine.movable_nodes():
            for cid in sorted(engine.clusters):
                if cid == engine.owner.get(node):
                    continue
                record = engine.try_move(node, cid)
                if record is None:
                    continue
                moved += 1
                for cl in engine.clusters.values():
                    assert cl.input_count <= ceiling
                engine.assert_consistent()
                engine.undo(record)
                break
        assert moved > 0, "ratchet froze every move on an oversized seed"


class TestUndo:
    def test_undo_roundtrip_restores_everything(self, s510):
        graph, scc_index, partition, config = s510
        engine = MoveEngine(graph, scc_index, partition, beta=config.beta)
        before = _state(engine)
        record = _first_legal_move(engine)
        assert _state(engine) != before
        engine.undo(record)
        assert _state(engine) == before
        engine.assert_consistent()

    def test_fresh_cluster_create_and_undo(self, s510):
        graph, scc_index, partition, config = s510
        engine = MoveEngine(graph, scc_index, partition, beta=config.beta)
        before = _state(engine)
        for node in engine.movable_nodes():
            record = engine.try_move(node, engine.new_cluster_id())
            if record is not None:
                assert record.dst_before is None
                engine.assert_consistent()
                engine.undo(record)
                break
        else:
            pytest.skip("no singleton split legal on this seed")
        assert _state(engine) == before
