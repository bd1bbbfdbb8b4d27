"""The differential fuzz harness itself: checks, shrinking, archiving.

The harness is trusted to (a) report no mismatch on agreeing
implementations, and (b) when a mismatch exists, shrink it and leave a
usable ``.bench`` reproducer behind.  (b) is exercised by injecting a
synthetic failing check — waiting for a real kernel bug would make the
test vacuous.
"""

import json
from pathlib import Path

import pytest

import repro.corpus.fuzz as fuzz
from repro.corpus import CorpusSpec, load_corpus_circuit
from repro.corpus.fuzz import (
    check_pipeline,
    check_scc,
    check_solvers,
    pipeline_fingerprint,
    random_spec,
    run_fuzz,
    shrink_spec,
)
from repro.netlist.bench import parse_bench_file


def test_checks_agree_on_seed_corpus_circuit():
    netlist = load_corpus_circuit("corpus-ff400")
    assert check_scc(netlist) is None
    assert check_pipeline(netlist) is None
    assert check_solvers(netlist) is None


def test_solver_check_recounts_the_register_prediction(monkeypatch):
    """An area step that mispredicts its own count is caught by the
    recount from the edge list, not trusted."""
    solve = fuzz.solve_cut_retiming

    def off_by_one(*args, **kwargs):
        solution = solve(*args, **kwargs)
        solution.registers += 1
        return solution

    monkeypatch.setattr(fuzz, "solve_cut_retiming", off_by_one)
    problem = check_solvers(load_corpus_circuit("corpus-ff400"))
    assert problem is not None and "predicted" in problem


def test_fingerprint_is_reproducible_and_order_normalized():
    netlist = load_corpus_circuit("corpus-ff400")
    a = pipeline_fingerprint(netlist, use_compiled=True)
    b = pipeline_fingerprint(netlist, use_compiled=False)
    assert a == b
    assert a["cut"] == sorted(a["cut"])
    assert a["covered"] == sorted(a["covered"])


def test_random_spec_draws_are_valid_and_deterministic():
    import random

    rng_a, rng_b = random.Random(3), random.Random(3)
    specs_a = [random_spec(rng_a, i) for i in range(10)]
    specs_b = [random_spec(rng_b, i) for i in range(10)]
    assert specs_a == specs_b
    assert len({s.seed for s in specs_a}) > 1


def test_shrink_reaches_minimal_failing_spec():
    # synthetic failure: "any circuit with >= 64 gates and chords"
    def still_fails(spec: CorpusSpec) -> bool:
        return spec.n_gates >= 64 and spec.chord_prob > 0

    start = CorpusSpec(
        name="big",
        seed=11,
        n_gates=512,
        chord_prob=0.4,
        scc_coupling=0.3,
        scc_register_fraction=0.4,
        fanout_hub_bias=0.2,
    )
    shrunk = shrink_spec(start, still_fails)
    assert still_fails(shrunk)
    # gate count drove down to just above the predicate's threshold:
    # one more halving or -16 step would cross below 64 and was rejected
    assert 64 <= shrunk.n_gates < 96
    assert shrunk.chord_prob > 0  # the load-bearing knob survived
    assert shrunk.scc_coupling == 0.0  # irrelevant knobs zeroed
    assert shrunk.fanout_hub_bias == 0.0


def test_shrink_keeps_spec_when_no_candidate_fails():
    spec = CorpusSpec(name="s", seed=2, n_gates=48, chord_prob=0.2)
    # every reduction "fixes" the failure → nothing is accepted
    assert shrink_spec(spec, lambda s: False) == spec


def test_run_fuzz_clean_session_reports_ok(tmp_path):
    report = run_fuzz(
        rounds=2,
        seed=123,
        archive_dir=tmp_path,
        max_gates=160,
        checks=["scc", "pipeline"],
    )
    assert report.ok
    assert report.rounds == 2
    assert report.checks_run == {"scc": 2, "pipeline": 2}
    assert list(tmp_path.iterdir()) == []  # nothing archived


def test_run_fuzz_archives_shrunk_reproducer(tmp_path, monkeypatch):
    # force every SCC check to "fail" so the archive path runs for real
    monkeypatch.setattr(
        fuzz, "check_scc", lambda netlist: "injected divergence"
    )
    report = run_fuzz(
        rounds=1,
        seed=9,
        archive_dir=tmp_path,
        max_gates=160,
        checks=["scc"],
    )
    assert not report.ok
    (mismatch,) = report.mismatches
    assert mismatch.check == "scc"
    assert mismatch.detail == "injected divergence"
    # shrinking drove the gate count to the reduction moves' floor
    assert mismatch.spec.n_gates < 64

    bench = Path(mismatch.bench_path)
    sidecar = Path(mismatch.spec_path)
    assert bench.is_file() and sidecar.is_file()
    # the reproducer parses and regenerates from its sidecar spec
    netlist = parse_bench_file(str(bench))
    assert netlist.stats().n_gates == mismatch.spec.n_gates
    payload = json.loads(sidecar.read_text())
    assert CorpusSpec(**payload["spec"]) == mismatch.spec
    assert payload["check"] == "scc"


def test_run_fuzz_rejects_unknown_check(tmp_path):
    with pytest.raises(ValueError, match="unknown fuzz check"):
        run_fuzz(rounds=1, seed=1, archive_dir=tmp_path, checks=["nope"])


@pytest.mark.slow
def test_run_fuzz_with_service_differential(tmp_path):
    report = run_fuzz(
        rounds=3,
        seed=31,
        archive_dir=tmp_path,
        max_gates=320,
        with_service=True,
    )
    assert report.ok, [m.detail for m in report.mismatches]
    assert report.checks_run.get("service") == 3
