"""Simulated-annealing refinement over the greedy partition.

Unlike the from-scratch SA baseline (:mod:`repro.baselines.annealing`,
the paper's reference [4] reimplementation), this pass *starts from the
``Assign_CBIT`` result* and explores legality-preserving perturbations
of it — every proposal is Eq. 5/6-prechecked by the
:class:`~repro.optimize.engine.MoveEngine` before it can be applied, so
the walk never leaves the feasible region the greedy construction
established.

**Move set** (drawn per step from the seeded RNG):

* *boundary move* — the Σ lever: pick a cluster sitting one input above
  a CBIT type boundary (ι ∈ {5, 9, 13, 17, 25, 33}) and relocate one of
  its members so it drops a catalogue type;
* *evict move* — drain one of the smallest clusters into its
  neighbours; the move that empties it deletes its whole ``p_k·n_k``
  term;
* *cut relocation* — pick a (preferably uncovered) cut net and pull its
  source into the sink's cluster or a comb sink into the source's
  cluster, turning the boundary crossing internal;
* *membership swap* — relocate a uniformly random comb node to a
  neighbour's cluster (or, rarely, a fresh singleton — the split move
  that lets two half-empty CBITs replace one big one).

**Acceptance.**  Metropolis on the total DFF-equivalent test area
(:func:`~repro.optimize.refine.refine_cost`); geometric cooling from
``t0 = max(1, Σ_seed/200)`` to ``0.01`` over the deterministic schedule
(:func:`~repro.optimize.refine.schedule_steps`).  The uncovered term
follows the re-retiming contract in :mod:`repro.optimize.refine`:
exact solves at the start, at budgeted checkpoints, and on the final
best state; a pessimistic estimate (unproven cut ⇒ uncovered) in
between.

**Guarantee.**  A state is only recorded as *best* when its Σ does not
exceed the greedy seed's and its total cost improves on the incumbent;
after the final exact solve the result is kept only if its exact cost
is no worse than the seed's, so the returned partition always
satisfies ``Σ_final ≤ Σ_greedy`` (the seed is the fallback).

Seeding goes through :func:`repro.circuits.generator.resolve_seed` —
one ``random.Random`` per call, no module-global RNG — so results are
byte-deterministic for a given ``(netlist, config)`` at any ``--jobs``.
"""

from __future__ import annotations

import math
import random
from typing import List

from ..circuits.generator import resolve_seed
from ..config import MercedConfig
from ..graphs.digraph import CircuitGraph, NodeKind
from ..graphs.paths import register_weighted_edges
from ..graphs.scc import SCCIndex
from ..partition.clusters import Partition
from ..retiming.solve import solve_cut_retiming
from .engine import MoveEngine
from .refine import (
    OptimizeResult,
    estimate_retime_seconds,
    refine_cost,
    schedule_steps,
    unchanged_result,
)

__all__ = ["anneal_refine"]

#: Cluster input counts one step above a CBIT type boundary — a single
#: shed input drops the cluster a whole catalogue type.
_BOUNDARY_IOTAS = frozenset({5, 9, 13, 17, 25, 33})
#: Probability a swap move opens a fresh singleton cluster instead of
#: targeting a neighbour's cluster.
_P_FRESH_CLUSTER = 0.05
#: Cumulative move-kind thresholds: boundary / evict / cut / swap.
_W_BOUNDARY = 0.30
_W_EVICT = 0.50
_W_CUT = 0.80
_T_END = 0.01
#: At most this many mid-run exact re-solves (plus initial and final).
_MAX_CHECKPOINTS = 6


def anneal_refine(
    graph: CircuitGraph,
    scc_index: SCCIndex,
    partition: Partition,
    config: MercedConfig,
    name: str = "",
    audit: bool = False,
) -> OptimizeResult:
    """Refine ``partition`` by legality-checked simulated annealing.

    Args:
        graph: the circuit graph the partition lives on.
        scc_index: its SCC index (Eq. 6 budgets).
        partition: the greedy seed (``Assign_CBIT`` output).
        config: supplies ``l_k``, ``beta``, ``seed``, and the
            ``optimize_budget`` driving the schedule length.
        name: circuit name, folded into the seed resolution so
            different circuits explore differently under the default
            seed.
        audit: run :meth:`MoveEngine.assert_consistent` after every
            accepted move (the property-test hook; quadratic, tests
            only).
    """
    edges = register_weighted_edges(graph)
    engine = MoveEngine(graph, scc_index, partition, beta=config.beta)
    rng = random.Random(resolve_seed(f"optimize:{name}", config.seed))

    movable = [
        n
        for n in engine.movable_nodes()
        if graph.kind(n) is NodeKind.COMB
    ]
    sigma0 = engine.sigma
    cuts0 = engine.n_cuts
    solution = solve_cut_retiming(graph, engine.cut_nets(), edges=edges)
    uncovered0 = len(solution.dropped_cuts)
    n_retimes = 1
    # nets the last exact solve proved free (covered or unconstrained);
    # everything else in the live cut set is charged as uncovered
    known_ok = set(solution.covered_cuts) | set(solution.unconstrained_cuts)

    # budget split: half for proposals, half for exact re-solves (the
    # initial and final ones are mandatory; extras become checkpoints)
    n_steps = schedule_steps(
        config.optimize_budget / 2.0, len(engine.owner), cuts0
    )
    retime_cost = estimate_retime_seconds(len(edges), cuts0)
    n_checkpoints = max(
        0,
        min(
            _MAX_CHECKPOINTS,
            int(config.optimize_budget / 2.0 / retime_cost) - 2,
        ),
    )
    checkpoint_every = (
        n_steps // (n_checkpoints + 1) if n_checkpoints else n_steps + 1
    )

    def est_uncovered() -> int:
        return sum(1 for net in engine.cut if net not in known_ok)

    current = refine_cost(sigma0, cuts0, uncovered0)
    best_cost = current
    best_snapshot = None  # None ⇒ seed still best

    t0 = max(1.0, sigma0 / 200.0)
    alpha = (_T_END / t0) ** (1.0 / max(1, n_steps - 1))
    temp = t0
    n_proposed = 0
    n_accepted = 0

    for step in range(1, n_steps + 1):
        temp *= alpha
        record = _propose(engine, graph, rng, movable, known_ok)
        if record is not None:
            n_proposed += 1
            candidate = refine_cost(
                engine.sigma, engine.n_cuts, est_uncovered()
            )
            delta = candidate - current
            if delta <= 0 or rng.random() < math.exp(
                -delta / max(temp, 1e-9)
            ):
                current = candidate
                n_accepted += 1
                if audit:
                    engine.assert_consistent()
                # Σ-guarded best tracking: never admit a state that
                # trades catalogue area for coverage past the seed.
                if (
                    engine.sigma <= sigma0 + 1e-9
                    and candidate < best_cost - 1e-9
                ):
                    best_cost = candidate
                    best_snapshot = engine.snapshot()
            else:
                engine.undo(record)
        if step % checkpoint_every == 0 and step < n_steps:
            solution = solve_cut_retiming(
                graph, engine.cut_nets(), edges=edges
            )
            n_retimes += 1
            known_ok = set(solution.covered_cuts) | set(
                solution.unconstrained_cuts
            )
            current = refine_cost(
                engine.sigma, engine.n_cuts, len(solution.dropped_cuts)
            )

    if best_snapshot is None:
        return unchanged_result(
            "anneal",
            partition,
            sigma0,
            cuts0,
            uncovered0,
            n_steps,
            n_proposed=n_proposed,
            n_retimes=n_retimes,
        )

    # final exact solve on the best state; keep it only if its exact
    # cost holds up against the seed's
    refined = engine.export_partition(best_snapshot, scc_index)
    final_cuts = refined.cut_nets()
    final_solution = solve_cut_retiming(graph, final_cuts, edges=edges)
    n_retimes += 1
    sigma_best = engine.sigma_of(best_snapshot)
    uncovered_best = len(final_solution.dropped_cuts)
    exact_best = refine_cost(sigma_best, len(final_cuts), uncovered_best)
    if exact_best > refine_cost(sigma0, cuts0, uncovered0) + 1e-9:
        return unchanged_result(
            "anneal",
            partition,
            sigma0,
            cuts0,
            uncovered0,
            n_steps,
            n_proposed=n_proposed,
            n_retimes=n_retimes,
        )
    return OptimizeResult(
        method="anneal",
        partition=refined,
        sigma_before=sigma0,
        sigma_after=sigma_best,
        cuts_before=cuts0,
        cuts_after=len(final_cuts),
        uncovered_before=uncovered0,
        uncovered_after=uncovered_best,
        n_steps=n_steps,
        n_proposed=n_proposed,
        n_accepted=n_accepted,
        n_retimes=n_retimes,
    )


# ----------------------------------------------------------------------
# move proposals


def _propose(engine, graph, rng, movable, known_ok):
    """Draw one move kind and build its proposal (None when infeasible)."""
    roll = rng.random()
    if roll < _W_BOUNDARY:
        return _propose_boundary(engine, graph, rng)
    if roll < _W_EVICT:
        return _propose_evict(engine, graph, rng)
    if roll < _W_CUT and engine.cut:
        return _propose_cut_move(engine, graph, rng, known_ok)
    if movable:
        return _propose_swap(engine, graph, rng, movable)
    return None


def _neighbour_clusters(engine, graph, node) -> List[int]:
    """Clusters adjacent to ``node``, excluding its own (sorted)."""
    own = engine.owner.get(node)
    cids = set()
    for nb in graph.predecessors(node) + graph.successors(node):
        cid = engine.owner.get(nb)
        if cid is not None and cid != own:
            cids.add(cid)
    return sorted(cids)


def _propose_boundary(engine, graph, rng):
    """Shed one input from a cluster one step above a type boundary."""
    cids = sorted(
        cid
        for cid, c in engine.clusters.items()
        if c.input_count in _BOUNDARY_IOTAS
    )
    if not cids:
        return None
    cluster = engine.clusters[cids[rng.randrange(len(cids))]]
    members = sorted(
        n for n in cluster.nodes if graph.kind(n) is NodeKind.COMB
    )
    if not members:
        return None
    node = members[rng.randrange(len(members))]
    targets = _neighbour_clusters(engine, graph, node)
    if not targets:
        return None
    return engine.try_move(node, targets[rng.randrange(len(targets))])


def _propose_evict(engine, graph, rng):
    """Drain a small cluster: relocate one member to a neighbour."""
    by_size = sorted(
        (len(c.nodes), cid) for cid, c in engine.clusters.items()
    )
    if len(by_size) < 2:
        return None
    # one of the three smallest, size-biased toward the smallest
    _size, cid = by_size[rng.randrange(min(3, len(by_size)))]
    members = sorted(
        n
        for n in engine.clusters[cid].nodes
        if graph.kind(n) is NodeKind.COMB
    )
    if not members:
        return None
    node = members[rng.randrange(len(members))]
    targets = _neighbour_clusters(engine, graph, node)
    if not targets:
        return None
    return engine.try_move(node, targets[rng.randrange(len(targets))])


def _propose_cut_move(engine, graph, rng, known_ok):
    """Pull one side of a cut net (uncovered preferred) across."""
    uncovered = [net for net in engine.cut if net not in known_ok]
    pool = uncovered if uncovered else list(engine.cut)
    net = graph.net(pool[rng.randrange(len(pool))])
    src_cid = engine.owner.get(net.source)
    comb_sinks = sorted(
        s
        for s in net.sinks
        if graph.kind(s) is NodeKind.COMB
        and engine.owner.get(s) != src_cid
    )
    if not comb_sinks:
        return None
    sink = comb_sinks[rng.randrange(len(comb_sinks))]
    if rng.random() < 0.5:
        return engine.try_move(net.source, engine.owner[sink])
    if src_cid is None:
        return None
    return engine.try_move(sink, src_cid)


def _propose_swap(engine, graph, rng, movable):
    """Relocate a random comb node to a neighbour's (or fresh) cluster."""
    node = movable[rng.randrange(len(movable))]
    if node not in engine.owner:  # pragma: no cover - defensive
        return None
    if rng.random() < _P_FRESH_CLUSTER:
        return engine.try_move(node, engine.new_cluster_id())
    targets = _neighbour_clusters(engine, graph, node)
    if not targets:
        return None
    return engine.try_move(node, targets[rng.randrange(len(targets))])
