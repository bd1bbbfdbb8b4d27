"""Compiled vs reference partition/retiming kernels: bit-identity.

Every compiled kernel (epoch-stamped ``Make_Set`` DFS, lazy boundary
heap, incremental merge-gain scoring, the least-area retiming descent)
claims exact equality with its reference counterpart — same clusters in
the same order, same cut/forced sets, same merge winners under ties,
same lags, register count and dropped cuts.  Only the retiming's step
count may differ: the descent's steps are not the twin's pivots.
These tests run both paths end to end on random feedback circuits and
bundled benches and compare everything observable: the
:func:`repro.corpus.fuzz.pipeline_fingerprint` the differential fuzzer
compares, key by key.  Its reference side runs
``make_group(use_compiled=False)``, ``assign_cbit_reference`` and
``solve_cut_retiming_reference``.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.circuits import load_circuit
from repro.circuits.generator import generate_circuit
from repro.circuits.profiles import CircuitProfile
from repro.corpus.fuzz import pipeline_fingerprint


@st.composite
def feedback_profiles(draw):
    n_dffs = draw(st.integers(min_value=1, max_value=6))
    dffs_on_scc = draw(st.integers(min_value=0, max_value=n_dffs))
    n_gates = draw(st.integers(min_value=15, max_value=40))
    n_inv = draw(st.integers(min_value=0, max_value=6))
    base = 2 * n_gates + n_inv + 10 * n_dffs
    return CircuitProfile(
        name=f"keq{draw(st.integers(0, 10**6))}",
        n_inputs=draw(st.integers(min_value=2, max_value=6)),
        n_dffs=n_dffs,
        n_gates=n_gates,
        n_inverters=n_inv,
        paper_area=base + draw(st.integers(min_value=0, max_value=10)),
        dffs_on_scc=dffs_on_scc,
        n_outputs=draw(st.integers(min_value=1, max_value=3)),
    )


def assert_pipelines_identical(netlist, lk, beta):
    compiled = pipeline_fingerprint(netlist, lk, beta, use_compiled=True)
    reference = pipeline_fingerprint(netlist, lk, beta, use_compiled=False)
    for key in compiled:
        assert compiled[key] == reference[key], key


@given(
    feedback_profiles(),
    st.integers(min_value=7, max_value=16),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=0, max_value=99),
)
@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_kernel_equivalence_random(profile, lk, beta, seed):
    netlist = generate_circuit(profile, seed=seed)
    assert_pipelines_identical(netlist, lk, beta)


@pytest.mark.parametrize("name", ["s27", "s420.1", "s510", "s641"])
@pytest.mark.parametrize("lk", [8, 16])
def test_kernel_equivalence_bundled(name, lk):
    assert_pipelines_identical(load_circuit(name), lk, beta=1)


def test_kernel_equivalence_bundled_beta2():
    # β=2 exercises budget exhaustion and a cut set the retiming drops from
    assert_pipelines_identical(load_circuit("s641"), lk=16, beta=2)


# ---------------------------------------------------------------------------
# corpus-backed cases: 10-50× the hypothesis profile sizes, real fanout
# tails and deep/coupled SCCs the tiny random profiles can't produce
# ---------------------------------------------------------------------------
from repro.corpus import load_corpus_circuit  # noqa: E402


def test_kernel_equivalence_corpus_tier1():
    assert_pipelines_identical(load_corpus_circuit("corpus-ff400"), lk=16, beta=1)


@pytest.mark.slow
@pytest.mark.parametrize(
    "name",
    [
        "corpus-ring600",
        "corpus-chord800",
        "corpus-coupled1k",
        "corpus-hub1k",
        "corpus-dense2k",
    ],
)
def test_kernel_equivalence_corpus_slow(name):
    assert_pipelines_identical(load_corpus_circuit(name), lk=16, beta=1)


@pytest.mark.slow
def test_kernel_equivalence_corpus_beta2():
    # budget exhaustion at corpus scale: chords starve ring registers
    assert_pipelines_identical(load_corpus_circuit("corpus-chord800"), lk=16, beta=2)
