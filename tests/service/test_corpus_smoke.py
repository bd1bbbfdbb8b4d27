"""Service fuzz smoke: corpus circuits through ``merced serve``.

Concurrent submissions of generated (non-bundled) circuits must come
back byte-identical to inline :class:`~repro.core.merced.Merced` runs —
the corpus circuits travel as raw ``.bench`` text in the request body,
so this also covers the service's bench-ingestion path at sizes the
bundled ISCAS suite doesn't reach.  One circuit is also submitted at two
seeds at once, so two executor threads compile the same ``.bench`` text
concurrently; each compile must work on its own graph.
"""

from __future__ import annotations

import json
import threading
import time

import pytest

from repro.config import MercedConfig
from repro.core.merced import Merced
from repro.corpus import SEED_CORPUS_SPECS, load_corpus_circuit
from repro.exec.task import merced_payload
from repro.netlist.bench import write_bench
from repro.service import ServiceClient, ServiceConfig, ServiceThread

LK, SEED = 16, 1996
#: (circuit, seed) inputs in submission order.  The same circuit comes
#: first at two seeds, so the service's two executor threads compile it
#: at the same time.
TIER1_INPUTS = [
    ("corpus-ff400", SEED),
    ("corpus-ff400", SEED + 1),
    ("corpus-ring600", SEED),
]
#: Seconds between consecutive submissions: each compile starts after
#: the previous one has parsed its circuit, and still overlaps it.
STAGGER_S = 0.2


@pytest.fixture
def boot(tmp_path):
    handle = ServiceThread(
        ServiceConfig(
            host="127.0.0.1",
            port=0,
            workers=2,
            queue_capacity=16,
            timeout=120.0,
            cache_dir=str(tmp_path / "cache"),
        )
    ).start()
    client = ServiceClient(port=handle.port, timeout=120.0)
    client.wait_ready()
    yield client
    handle.stop()


def _inline_payload(name, seed=SEED):
    netlist = load_corpus_circuit(name)
    report = Merced(MercedConfig(seed=seed, lk=LK)).run(netlist)
    return merced_payload(report)


def _submit(client, name, seed=SEED):
    netlist = load_corpus_circuit(name)
    return client.compile_point(
        circuit=name, bench=write_bench(netlist), lk=LK, seed=seed
    )


def _run_concurrently(client, inputs):
    """Submit each ``(name, seed)`` input ``STAGGER_S`` after the last.

    Returns the rows keyed by input.
    """
    barrier = threading.Barrier(len(inputs))
    rows = {}
    errors = []

    def target(position, item):
        barrier.wait()
        time.sleep(STAGGER_S * position)
        try:
            rows[item] = _submit(client, *item)
        except Exception as exc:  # surfaced below
            errors.append(exc)

    threads = [
        threading.Thread(target=target, args=pair)
        for pair in enumerate(inputs)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(120.0)
    assert not any(t.is_alive() for t in threads), "client thread wedged"
    if errors:
        raise errors[0]
    return rows


def test_corpus_service_matches_inline_concurrently(boot):
    rows = _run_concurrently(boot, TIER1_INPUTS)
    for name, seed in TIER1_INPUTS:
        row = rows[name, seed]
        assert row["ok"], row
        inline = _inline_payload(name, seed)
        assert json.dumps(row["value"], sort_keys=True) == json.dumps(
            inline, sort_keys=True
        ), f"{name} (seed {seed}): service payload differs from inline run"


@pytest.mark.slow
def test_corpus_service_matches_inline_full_corpus(boot):
    inputs = [(name, SEED) for name in sorted(SEED_CORPUS_SPECS)]
    rows = _run_concurrently(boot, inputs)
    for name, seed in inputs:
        row = rows[name, seed]
        assert row["ok"], row
        inline = _inline_payload(name, seed)
        assert json.dumps(row["value"], sort_keys=True) == json.dumps(
            inline, sort_keys=True
        )


def test_corpus_bench_repeat_submission_is_cache_stable(boot):
    """Same bench text twice → identical rows, second served from cache."""
    first = _submit(boot, "corpus-ff400")
    second = _submit(boot, "corpus-ff400")
    assert first["ok"] and second["ok"]
    assert json.dumps(first["value"], sort_keys=True) == json.dumps(
        second["value"], sort_keys=True
    )
