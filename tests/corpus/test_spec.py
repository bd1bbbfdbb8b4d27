"""CorpusSpec validation, derived counts, and serialization round-trip."""

import pytest

from repro.corpus import CorpusSpec
from repro.errors import NetlistError


def test_defaults_and_derived_counts():
    spec = CorpusSpec(name="t", seed=1, n_gates=1000)
    assert spec.n_dffs == 50  # 5% register density
    assert spec.n_inverters == 80
    assert spec.resolved_outputs == 1000 // 64
    assert spec.resolved_stages == 2
    assert 4 <= spec.resolved_inputs <= 96


def test_scc_dff_budget_capped_by_gate_count():
    # all registers on rings, deep chains: the chain budget must cap it
    spec = CorpusSpec(
        name="t",
        seed=1,
        n_gates=64,
        register_density=0.5,
        scc_register_fraction=1.0,
        scc_depth=8,
    )
    assert spec.n_scc_dffs * spec.scc_depth <= spec.n_gates
    assert spec.n_scc_dffs < spec.n_dffs


@pytest.mark.parametrize(
    "overrides",
    [
        {"n_gates": 8},
        {"n_gates": 2_000_000},
        {"register_density": 0.9},
        {"chord_prob": 1.5},
        {"scc_coupling": -0.1},
        {"scc_depth": 0},
        {"scc_depth": 9},
        {"max_ring_size": 0},
        {"max_fanin": 2},
        {"max_fanin": 7},
    ],
)
def test_invalid_specs_rejected(overrides):
    base = dict(name="t", seed=1, n_gates=100)
    base.update(overrides)
    with pytest.raises(NetlistError):
        CorpusSpec(**base)


def test_dict_round_trip():
    spec = CorpusSpec(name="t", seed=9, n_gates=256, chord_prob=0.2)
    assert CorpusSpec(**spec.as_dict()) == spec


def test_with_override_helper():
    spec = CorpusSpec(name="t", seed=9, n_gates=256)
    smaller = spec.with_(n_gates=128)
    assert smaller.n_gates == 128
    assert smaller.seed == spec.seed
    assert spec.n_gates == 256  # frozen original untouched


def test_explicit_io_and_stage_overrides():
    spec = CorpusSpec(
        name="t", seed=1, n_gates=500, n_inputs=7, n_outputs=3, n_stages=4
    )
    assert spec.resolved_inputs == 7
    assert spec.resolved_outputs == 3
    assert spec.resolved_stages == 4
