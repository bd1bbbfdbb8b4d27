"""Bit-parallel vs scalar simulation: the oracle equivalence property.

The bit-parallel engine (:class:`repro.sim.CombSimulator` plus the
fault-lane packing helpers in :mod:`repro.sim.bitparallel`) must be
*bit-identical* to the one-pattern-at-a-time reference oracle
(:class:`repro.sim.ScalarSimulator`) — gate for gate, pattern for
pattern, fault for fault — on random circuits (hypothesis) and on every
bundled benchmark.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.circuits import available_circuits, load_circuit
from repro.circuits.generator import generate_circuit
from repro.circuits.profiles import CircuitProfile
from repro.faults.model import fault_masks, full_fault_list
from repro.sim import (
    WORD_BITS,
    CombSimulator,
    ScalarSimulator,
    block_ones,
    chunked,
    extract_block,
    fault_block_masks,
    pack_patterns,
    replicate_word,
)


def random_patterns(sim, n, seed):
    rng = random.Random(seed)
    return [
        {s: rng.getrandbits(1) for s in sim.pseudo_inputs} for _ in range(n)
    ]


def assert_gate_for_gate(netlist, patterns, faults=None):
    """Every signal of every pattern matches between the two engines."""
    scalar = ScalarSimulator(netlist)
    parallel = CombSimulator(netlist)
    n = len(patterns)
    mask = (1 << n) - 1
    words = pack_patterns(patterns, scalar.pseudo_inputs)
    wide_faults = None
    if faults:
        wide_faults = {
            s: ((am & 1) * mask, (om & 1) * mask)
            for s, (am, om) in faults.items()
        }
    packed = parallel.run(words, n, faults=wide_faults)
    per_pattern = ScalarSimulator(netlist).run_patterns(
        patterns, faults=faults
    )
    for i, values in enumerate(per_pattern):
        for sig, bit in values.items():
            assert (packed[sig] >> i) & 1 == bit, (
                f"{netlist.name}: signal {sig!r} pattern {i} "
                f"scalar={bit} parallel={(packed[sig] >> i) & 1}"
            )


@st.composite
def tiny_profiles(draw):
    n_dffs = draw(st.integers(min_value=1, max_value=6))
    n_gates = draw(st.integers(min_value=10, max_value=40))
    n_inv = draw(st.integers(min_value=0, max_value=6))
    return CircuitProfile(
        name=f"sim{draw(st.integers(0, 10**6))}",
        n_inputs=draw(st.integers(min_value=2, max_value=6)),
        n_dffs=n_dffs,
        n_gates=n_gates,
        n_inverters=n_inv,
        paper_area=2 * n_gates + n_inv + 10 * n_dffs,
        dffs_on_scc=draw(st.integers(min_value=0, max_value=n_dffs)),
        n_outputs=draw(st.integers(min_value=1, max_value=3)),
    )


class TestRandomCircuits:
    @given(tiny_profiles(), st.integers(0, 2**30), st.integers(1, 40))
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_fault_free_equivalence(self, profile, seed, n_patterns):
        netlist = generate_circuit(profile, seed=7)
        sim = ScalarSimulator(netlist)
        assert_gate_for_gate(
            netlist, random_patterns(sim, n_patterns, seed)
        )

    @given(tiny_profiles(), st.integers(0, 2**30), st.data())
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_faulty_equivalence(self, profile, seed, data):
        netlist = generate_circuit(profile, seed=7)
        faults = full_fault_list(netlist)
        fault = data.draw(st.sampled_from(faults))
        sim = ScalarSimulator(netlist)
        patterns = random_patterns(sim, 8, seed)
        assert_gate_for_gate(
            netlist, patterns, faults=fault_masks(fault, 1)
        )

    @given(tiny_profiles(), st.integers(0, 2**30))
    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_fault_lane_packing_matches_per_fault_runs(self, profile, seed):
        """One multi-fault word run == one scalar run per fault.

        This is the packing the self-test session and structural checker
        rely on: fault ``j`` lives in bit-block ``j`` of a replicated
        pattern word, so a single :meth:`CombSimulator.run` grades up to
        ``WORD_BITS`` faults.
        """
        netlist = generate_circuit(profile, seed=7)
        scalar = ScalarSimulator(netlist)
        parallel = CombSimulator(netlist)
        n_patterns = 6
        patterns = random_patterns(scalar, n_patterns, seed)
        words = pack_patterns(patterns, scalar.pseudo_inputs)
        faults = full_fault_list(netlist)
        observe = list(netlist.outputs)
        for batch in chunked(faults, WORD_BITS):
            n_lanes = len(batch)
            replicated = {
                s: replicate_word(w, n_patterns, n_lanes)
                for s, w in words.items()
            }
            packed = parallel.run(
                replicated,
                n_patterns * n_lanes,
                faults=fault_block_masks(batch, n_patterns),
            )
            for j, fault in enumerate(batch):
                lone = parallel.run(
                    words, n_patterns, faults=fault_masks(fault, n_patterns)
                )
                for sig in observe:
                    assert (
                        extract_block(packed[sig], n_patterns, j)
                        == lone[sig]
                    ), f"fault {fault} lane {j} signal {sig!r}"


class TestBundledBenchmarks:
    """Scalar/parallel agreement on every circuit the library ships."""

    @pytest.mark.parametrize("name", available_circuits())
    def test_fault_free_equivalence(self, name):
        netlist = load_circuit(name)
        # fewer patterns on the big synthetics keeps the sweep O(seconds)
        n = 16 if netlist.stats().area_units < 5000 else 4
        sim = ScalarSimulator(netlist)
        assert_gate_for_gate(netlist, random_patterns(sim, n, seed=1996))

    def test_faulty_equivalence_s27(self):
        netlist = load_circuit("s27")
        sim = ScalarSimulator(netlist)
        patterns = random_patterns(sim, 12, seed=3)
        for fault in full_fault_list(netlist):
            assert_gate_for_gate(
                netlist, patterns, faults=fault_masks(fault, 1)
            )


class TestPackingHelpers:
    @given(
        st.integers(min_value=1, max_value=12),
        st.integers(min_value=1, max_value=8),
        st.integers(0, 2**30),
    )
    @settings(max_examples=50, deadline=None)
    def test_replicate_extract_roundtrip(self, n_patterns, n_blocks, seed):
        rng = random.Random(seed)
        word = rng.getrandbits(n_patterns)
        wide = replicate_word(word, n_patterns, n_blocks)
        for b in range(n_blocks):
            assert extract_block(wide, n_patterns, b) == word
        assert wide < 1 << (n_patterns * n_blocks)

    def test_block_ones(self):
        assert block_ones(3, 2) == 0b111111
        assert block_ones(1, 5) == 0b11111

    def test_chunked(self):
        assert [list(c) for c in chunked(list(range(5)), 2)] == [
            [0, 1],
            [2, 3],
            [4],
        ]
        assert list(chunked([], 4)) == []

    def test_fault_block_masks_isolates_lanes(self):
        class F:
            def __init__(self, signal, value):
                self.signal = signal
                self.value = value

        n = 4
        masks = fault_block_masks([F("a", 1), F("b", 0), F("a", 0)], n)
        ones = block_ones(n, 3)
        and_a, or_a = masks["a"]
        # lane 0: a stuck-at-1; lane 2: a stuck-at-0; lane 1 untouched
        assert or_a == 0b1111
        assert and_a == ones & ~(0b1111 << (2 * n))
        and_b, or_b = masks["b"]
        assert or_b == 0
        assert and_b == ones & ~(0b1111 << n)
