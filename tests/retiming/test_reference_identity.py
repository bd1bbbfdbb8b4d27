"""Production cut retiming vs its reference twin on corpus circuits.

:func:`solve_cut_retiming` descends from the unretimed lags by minimal
maximum-weight closures; :func:`solve_cut_retiming_reference` solves the
dual by network simplex.  Both return the greatest least-area lags ≤ 0,
which do not depend on the path taken, so lags, the register count and
the covered, dropped and unconstrained sets must be bit-identical.
Every solution must also pass the output oracle
(:func:`repro.retiming.verify.verify_drop_set`).
"""

import pytest

from repro.config import MercedConfig
from repro.corpus import load_corpus_circuit
from repro.graphs import SCCIndex, build_circuit_graph
from repro.partition import assign_cbit, make_group
from repro.retiming.solve import (
    solve_cut_retiming,
    solve_cut_retiming_reference,
)
from repro.retiming.verify import verify_drop_set


def _cut_problem(name):
    netlist = load_corpus_circuit(name)
    graph = build_circuit_graph(netlist, with_po_nodes=False)
    scc_index = SCCIndex(graph)
    config = MercedConfig(seed=1996, lk=16, beta=1, min_visit=5)
    group = make_group(graph, scc_index, config, strict=False)
    return graph, assign_cbit(group.partition).partition.cut_nets()


def _assert_identical(graph, cuts):
    sol = solve_cut_retiming(graph, cuts)
    ref = solve_cut_retiming_reference(graph, cuts)
    assert sol.retiming.rho == ref.retiming.rho
    assert sol.registers == ref.registers
    assert sol.covered_cuts == ref.covered_cuts
    assert sol.dropped_cuts == ref.dropped_cuts
    assert sol.unconstrained_cuts == ref.unconstrained_cuts
    assert verify_drop_set(graph, cuts, sol) is None
    return sol


@pytest.mark.parametrize("name", ["corpus-ff400", "corpus-ring600"])
def test_bit_identical_on_corpus_seed(name):
    _assert_identical(*_cut_problem(name))


@pytest.mark.slow
@pytest.mark.parametrize(
    "name", ["corpus-chord800", "corpus-hub1k", "corpus-dense2k"]
)
def test_bit_identical_on_corpus_seed_slow(name):
    _assert_identical(*_cut_problem(name))


def test_bit_identical_where_cuts_are_dropped():
    """corpus-coupled1k's ring-to-logic coupling starves some cuts, so
    the descent takes more than one step — and still agrees with the
    twin bit for bit."""
    sol = _assert_identical(*_cut_problem("corpus-coupled1k"))
    assert sol.dropped_cuts, "coupled spec should starve some cuts"
    assert sol.iterations > 1


def test_verify_drop_set_flags_bad_classifications():
    """The verifier rejects misclassified solutions, not just real ones."""
    from dataclasses import replace

    graph, cuts = _cut_problem("corpus-ring600")
    sol = solve_cut_retiming(graph, cuts)
    assert verify_drop_set(graph, cuts, sol) is None
    assert sol.covered_cuts
    # relabel one covered cut as dropped → not a minimal drop set
    victim = sorted(sol.covered_cuts)[0]
    bad = replace(
        sol,
        covered_cuts=set(sol.covered_cuts) - {victim},
        dropped_cuts=set(sol.dropped_cuts) | {victim},
    )
    assert "not minimal" in verify_drop_set(graph, cuts, bad)
    # losing a cut from the universe split fails too
    lost = replace(sol, covered_cuts=set(sol.covered_cuts) - {victim})
    assert "partition" in verify_drop_set(graph, cuts, lost)
