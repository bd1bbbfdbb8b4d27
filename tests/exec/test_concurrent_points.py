"""Concurrent ``run_point`` calls on one circuit must not interfere.

``Saturate_Network`` and ``Make_Group`` keep their working state on the
circuit graph (flows, distances, cut flags, CSR scratch), so two
compiles that shared one graph would corrupt each other.  The compile
service runs points on executor threads, and a sweep submits the same
circuit at several configs, so this runs four seeds of one circuit on
four threads at once.  A tiny switch interval makes the threads
interleave densely; every payload must still equal the inline run's.
"""

from __future__ import annotations

import json
import sys
import threading

from repro.circuits import load_circuit
from repro.config import MercedConfig
from repro.core.merced import Merced
from repro.exec.task import SweepPoint, merced_payload, run_point
from repro.netlist.bench import write_bench

ROUNDS = 50
SEEDS = (1, 2, 3, 4)
LK = 3


def _canonical(payload) -> str:
    return json.dumps(payload, sort_keys=True)


def _run_round(points):
    """Run every point on its own thread; one canonical payload each."""
    barrier = threading.Barrier(len(points))
    out = [None] * len(points)

    def target(i):
        barrier.wait()
        try:
            out[i] = _canonical(run_point(points[i]))
        except Exception as exc:  # a corrupted run may also raise
            out[i] = f"{type(exc).__name__}: {exc}"

    threads = [
        threading.Thread(target=target, args=(i,))
        for i in range(len(points))
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(60.0)
    assert not any(t.is_alive() for t in threads), "worker thread wedged"
    return out


def test_concurrent_points_on_one_circuit_match_inline():
    netlist = load_circuit("s27")
    text = write_bench(netlist)
    configs = [MercedConfig(lk=LK, seed=seed) for seed in SEEDS]
    inline = [
        _canonical(merced_payload(Merced(config).run(netlist)))
        for config in configs
    ]
    points = [SweepPoint("merced", "s27", text, config) for config in configs]
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        mismatched = []
        for round_no in range(ROUNDS):
            got = _run_round(points)
            bad = [
                (SEEDS[i], got[i])
                for i in range(len(points))
                if got[i] != inline[i]
            ]
            if bad:
                mismatched.append((round_no, bad))
    finally:
        sys.setswitchinterval(previous)
    assert not mismatched, (
        f"{len(mismatched)} of {ROUNDS} rounds returned a payload that "
        f"differs from inline Merced.run; first: {mismatched[0]}"
    )
