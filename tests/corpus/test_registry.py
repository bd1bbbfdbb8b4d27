"""Registry lookups + drift guard for the committed seed corpus.

``benchmarks/corpus/`` is generated output that lives in git; the guard
here fails when the generator evolves without re-running ``merced
corpus seed`` (stale committed bytes) or when someone hand-edits a
``.bench`` file (bytes no longer reproducible from the spec).
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.corpus import (
    SEED_CORPUS_SPECS,
    TREND_SPECS,
    CorpusSpec,
    corpus_spec_names,
    load_corpus_circuit,
    spec_by_name,
)
from repro.corpus.topology import generate_corpus_circuit
from repro.netlist.bench import write_bench

CORPUS_DIR = Path(__file__).resolve().parents[2] / "benchmarks" / "corpus"


def test_spec_names_cover_both_registries():
    names = corpus_spec_names()
    assert set(SEED_CORPUS_SPECS) <= set(names)
    assert set(TREND_SPECS) <= set(names)
    assert len(names) == len(set(names))  # no seed/trend collisions


def test_spec_by_name_error_lists_known_names():
    with pytest.raises(KeyError, match="corpus-ff400"):
        spec_by_name("corpus-nope")


def test_load_returns_defensive_copy():
    a = load_corpus_circuit("corpus-ff400")
    b = load_corpus_circuit("corpus-ff400")
    assert a is not b
    assert write_bench(a) == write_bench(b)
    a.add_input("tamper")
    assert "tamper" not in load_corpus_circuit("corpus-ff400").signals()


def test_manifest_matches_registry():
    manifest = json.loads((CORPUS_DIR / "manifest.json").read_text())
    assert set(manifest["circuits"]) == set(SEED_CORPUS_SPECS)
    for name, entry in manifest["circuits"].items():
        assert CorpusSpec(**entry["spec"]) == SEED_CORPUS_SPECS[name]


@pytest.mark.parametrize("name", sorted(SEED_CORPUS_SPECS))
def test_committed_bench_bytes_match_fresh_generation(name):
    committed = (CORPUS_DIR / f"{name}.bench").read_text()
    fresh = write_bench(generate_corpus_circuit(SEED_CORPUS_SPECS[name]))
    assert committed == fresh, (
        f"{name}.bench drifted from its spec — rerun `merced corpus seed` "
        "and commit the diff deliberately"
    )
    manifest = json.loads((CORPUS_DIR / "manifest.json").read_text())
    digest = hashlib.sha256(committed.encode("utf-8")).hexdigest()
    assert manifest["circuits"][name]["sha256"] == digest
