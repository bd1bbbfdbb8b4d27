"""Cross-module integration: compile, retime, verify, self-test."""

import pytest

from repro import Merced, MercedConfig
from repro.circuits import load_circuit
from repro.graphs import build_circuit_graph
from repro.netlist import parse_bench, write_bench
from repro.ppet import PPETSession
from repro.retiming import (
    apply_retiming,
    check_equivalence,
    find_equivalent_initial_state,
    solve_cut_retiming,
    verify_retiming,
)


def test_compile_retime_verify_loop():
    """The full Merced promise on s27: partition, retime the cut registers,
    prove the retimed circuit is a legal retiming and behaviourally
    equivalent with a computed initial state."""
    s27 = load_circuit("s27")
    report = Merced(MercedConfig(lk=3, seed=7)).run(s27)
    cuts = report.partition.cut_nets()
    assert cuts

    graph = build_circuit_graph(s27, with_po_nodes=True)
    # pin_io keeps the retimed circuit cycle-accurate at the pins, so an
    # equivalent initial state must exist (only internal moves happen)
    solution = solve_cut_retiming(graph, cuts, pin_io=True)
    assert solution.covered_cuts | solution.dropped_cuts >= set(cuts)

    retimed = apply_retiming(s27, solution.retiming.rho)
    verify_retiming(s27, retimed.netlist)  # raises if not a legal retiming

    state = find_equivalent_initial_state(s27, retimed.netlist)
    assert check_equivalence(s27, {}, retimed.netlist, state, n_steps=16)


def test_bench_file_through_whole_pipeline(tmp_path):
    """A netlist loaded from .bench text behaves exactly like the builder's."""
    s27 = load_circuit("s27")
    text = write_bench(s27)
    again = parse_bench(text, name="s27")
    r1 = Merced(MercedConfig(lk=3, seed=7)).run(s27)
    r2 = Merced(MercedConfig(lk=3, seed=7)).run(again)
    assert r1.area.n_cut_nets == r2.area.n_cut_nets
    assert r1.cost_dff == r2.cost_dff


def test_generated_circuit_full_stack():
    """Generator → Merced → PPET session → coverage, all consistent."""
    nl = load_circuit("s420.1")
    cfg = MercedConfig(lk=12, seed=3, min_visit=5)
    report = Merced(cfg).run(nl)
    report.partition.validate()
    session = PPETSession(nl, report.partition, report.plan, max_sim_inputs=12)
    out = session.run()
    tested = {r.cluster_id for r in out.results}
    assert tested == {a.cluster_id for a in report.plan.assignments}
    assert out.coverage.coverage > 0.9
    assert out.schedule.total_cycles > out.schedule.test_cycles  # scan > 0


def test_merged_cost_never_exceeds_unmerged():
    """Assign_CBIT exists to save area: Σ merged ≤ Σ unmerged."""
    for name in ("s27", "s510"):
        cfg = MercedConfig(lk=8, seed=5, min_visit=5)
        merged = Merced(cfg).run_named(name)
        unmerged = Merced(
            MercedConfig(lk=8, seed=5, min_visit=5, merge_clusters=False)
        ).run_named(name)
        assert merged.cost_dff <= unmerged.cost_dff
