"""Regression bench: bit-parallel fault grading vs the scalar oracle.

Not a paper table — this bench guards the engine-level speedup the
pipelined self-test session relies on.  The workload is the s27
self-test: grade every collapsed stuck-at fault of the circuit under a
pseudo-exhaustive pattern block, once with the one-pattern-at-a-time
:class:`repro.sim.ScalarSimulator` (the reference oracle) and once with
the bit-parallel engine (packed pattern words + fault-lane batching, the
exact scheme :mod:`repro.ppet.session` uses).  The bench asserts the two
agree fault-for-fault AND that the bit-parallel engine sustains at least
5x the scalar pattern throughput, and that a fully profiled compile +
session records its fault-simulation stage.  The timing table is printed
only.
"""

import itertools
import time

from repro import Merced, MercedConfig
from repro.circuits import load_circuit
from repro.core import format_table
from repro.faults import full_fault_list
from repro.faults.model import fault_masks
from repro.perf import profiled
from repro.ppet.session import PPETSession
from repro.sim import (
    WORD_BITS,
    CombSimulator,
    ScalarSimulator,
    chunked,
    extract_block,
    fault_block_masks,
    pack_patterns,
    replicate_word,
)

MIN_SPEEDUP = 5.0


def selftest_workload():
    """s27's pseudo-exhaustive pattern block + collapsed fault universe."""
    circuit = load_circuit("s27")
    sim = ScalarSimulator(circuit)
    pins = list(sim.pseudo_inputs)
    patterns = [
        dict(zip(pins, bits))
        for bits in itertools.product((0, 1), repeat=len(pins))
    ]
    faults = full_fault_list(circuit, include_inputs=False)
    return circuit, patterns, faults


def grade_scalar(circuit, patterns, faults):
    """Oracle grading: one levelized pass per (pattern, fault)."""
    sim = ScalarSimulator(circuit)
    observe = list(circuit.outputs)
    golden = [
        [v[o] for o in observe] for v in sim.run_patterns(patterns)
    ]
    detected = set()
    for fault in faults:
        masks = fault_masks(fault, 1)
        bad = sim.run_patterns(patterns, faults=masks)
        if [[v[o] for o in observe] for v in bad] != golden:
            detected.add(fault)
    return detected


def grade_parallel(circuit, patterns, faults):
    """Bit-parallel grading: packed patterns, up to 64 faults per run."""
    sim = CombSimulator(circuit)
    observe = list(circuit.outputs)
    n = len(patterns)
    words = pack_patterns(patterns, sim.pseudo_inputs)
    good = sim.run(words, n)
    good_obs = [good[o] for o in observe]
    detected = set()
    for batch in chunked(faults, WORD_BITS):
        lanes = len(batch)
        replicated = {
            s: replicate_word(w, n, lanes) for s, w in words.items()
        }
        bad = sim.run(
            replicated, n * lanes, faults=fault_block_masks(batch, n)
        )
        for j, fault in enumerate(batch):
            if [extract_block(bad[o], n, j) for o in observe] != good_obs:
                detected.add(fault)
    return detected


def test_bitparallel_throughput(benchmark):
    circuit, patterns, faults = selftest_workload()
    n_pattern_evals = len(patterns) * (1 + len(faults))

    t0 = time.perf_counter()
    scalar_detected = grade_scalar(circuit, patterns, faults)
    scalar_seconds = time.perf_counter() - t0

    parallel_detected = benchmark.pedantic(
        grade_parallel,
        args=(circuit, patterns, faults),
        rounds=3,
        iterations=1,
    )
    t0 = time.perf_counter()
    grade_parallel(circuit, patterns, faults)
    parallel_seconds = time.perf_counter() - t0

    # same verdict fault-for-fault, and much faster
    assert parallel_detected == scalar_detected
    speedup = scalar_seconds / parallel_seconds
    assert speedup >= MIN_SPEEDUP, (
        f"bit-parallel engine only {speedup:.1f}x faster than the scalar "
        f"oracle (required: {MIN_SPEEDUP:.0f}x)"
    )

    # a fully profiled compile + session records its fault simulation
    with profiled("s27-selftest") as trace:
        report = Merced(MercedConfig(lk=3, seed=7)).run(circuit)
        PPETSession(circuit, report.partition, report.plan).run()
    assert trace.to_dict()["stages"]["session_fault_sim"]["calls"] >= 1

    table = format_table(
        ["engine", "patterns", "seconds", "patterns/s", "speedup"],
        [
            [
                "scalar oracle",
                n_pattern_evals,
                f"{scalar_seconds:.3f}",
                f"{n_pattern_evals / scalar_seconds:,.0f}",
                "1.0x",
            ],
            [
                "bit-parallel",
                n_pattern_evals,
                f"{parallel_seconds:.3f}",
                f"{n_pattern_evals / parallel_seconds:,.0f}",
                f"{speedup:.1f}x",
            ],
        ],
    )
    print()
    print(
        "s27 self-test fault grading (pseudo-exhaustive block, "
        f"{len(faults)} faults):\n" + table
    )
