"""End-to-end tests for the ``merced serve`` compile service.

Boots a real :class:`~repro.service.server.CompileService` on a private
event-loop thread (ephemeral port, throwaway on-disk cache) and drives
it over actual HTTP with the bundled
:class:`~repro.service.client.ServiceClient` — the same path ``merced
submit`` uses.  Covers request coalescing (N identical concurrent
submissions → exactly one ``SweepFarm`` execution), the in-memory hot
tier, bounded-admission backpressure (rejects, not hangs) and the
client's busy retries, ``lint_only`` answers, per-request deadlines
enforced off the main thread, graceful drain, and bit-identical
payloads versus the inline pipeline.
"""

from __future__ import annotations

import http.client
import json
import logging
import socket
import threading
import time

import pytest

from repro.circuits.library import load_circuit
from repro.config import MercedConfig
from repro.core.merced import Merced
from repro.errors import ServiceRejectedError
from repro.exec.task import merced_payload
from repro.service import ServiceClient, ServiceConfig, ServiceThread


@pytest.fixture
def boot(tmp_path):
    """Factory fixture: start a service, hand back (handle, client)."""
    handles = []

    def _boot(**overrides):
        settings = dict(
            host="127.0.0.1",
            port=0,
            workers=2,
            queue_capacity=16,
            timeout=60.0,
            cache_dir=str(tmp_path / f"cache{len(handles)}"),
            # the suite drives failure paths with _spin/_sleep; real
            # deployments keep fault-injection kinds locked out
            allow_fault_kinds=True,
        )
        settings.update(overrides)
        handle = ServiceThread(ServiceConfig(**settings)).start()
        handles.append(handle)
        # retry_on_busy off: most of this suite asserts raw 429
        # semantics (immediacy, counters); the retry tests build their
        # own client.
        client = ServiceClient(
            port=handle.port, timeout=60.0, retry_on_busy=False
        )
        return handle, client

    yield _boot
    for handle in handles:
        handle.stop()


def _in_threads(n, fn):
    """Run ``fn(i)`` on ``n`` threads released together; return results."""
    barrier = threading.Barrier(n)
    rows = [None] * n
    errors = []

    def target(i):
        barrier.wait()
        try:
            rows[i] = fn(i)
        except Exception as exc:  # surfaced below
            errors.append(exc)

    threads = [
        threading.Thread(target=target, args=(i,)) for i in range(n)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(60.0)
    assert not any(t.is_alive() for t in threads), "client thread wedged"
    if errors:
        raise errors[0]
    return rows


# ----------------------------------------------------------------------
# basics
# ----------------------------------------------------------------------
def test_health_endpoint(boot):
    _, client = boot()
    health = client.wait_ready()
    assert health["ok"] is True
    assert health["draining"] is False
    assert health["queue_depth"] == 0


def test_metrics_document_shape(boot):
    _, client = boot()
    payload = client.metrics()
    assert set(payload) >= {
        "service",
        "counters",
        "latency",
        "cache",
        "watchdog",
    }
    assert payload["service"]["queue_capacity"] == 16
    assert payload["service"]["workers"] == 2
    assert set(payload["counters"]) >= {
        "requests",
        "submissions",
        "admitted",
        "coalesced",
        "rejected_backpressure",
        "executed",
        "cache_hits",
        "timeouts",
    }
    assert set(payload["cache"]) >= {"hits", "misses", "stores", "errors"}
    assert "timeouts_unenforced" in payload["watchdog"]
    assert set(payload["latency"]["request"]) == {
        "count",
        "sum_seconds",
        "max_seconds",
        "mean_seconds",
        "p50_seconds",
        "p99_seconds",
    }


def test_tcp_probe_disconnect_gets_no_spurious_error(boot):
    """A probe that connects, sends nothing, and reads must see a clean
    close — not the handler's pre-initialized 500 payload."""
    handle, _ = boot()
    with socket.create_connection(
        ("127.0.0.1", handle.port), timeout=5.0
    ) as sock:
        sock.settimeout(5.0)
        sock.shutdown(socket.SHUT_WR)
        assert sock.recv(65536) == b""


def test_unknown_route_and_bad_method(boot):
    _, client = boot()
    status, document, _ = client._request("GET", "/nope")
    assert status == 404 and document["ok"] is False
    status, document, _ = client._request("DELETE", "/metrics")
    assert status == 405


def test_unhandled_error_is_500_and_logs_traceback(boot, caplog):
    handle, client = boot()

    async def explode(request):
        raise RuntimeError("dispatch exploded")

    handle.service._dispatch = explode
    caplog.set_level(logging.ERROR, logger="repro.service")
    status, document, _ = client._request("GET", "/healthz")
    assert status == 500
    assert document["error_type"] == "RuntimeError"
    assert document["error"] == "dispatch exploded"
    records = [r for r in caplog.records if r.name == "repro.service"]
    assert len(records) == 1
    assert "GET /healthz" in records[0].getMessage()
    assert records[0].exc_info is not None
    assert "dispatch exploded" in records[0].exc_text


# ----------------------------------------------------------------------
# payload identity with the inline pipeline
# ----------------------------------------------------------------------
def test_compile_payload_matches_inline_merced(boot):
    _, client = boot()
    row = client.compile_point(circuit="s27", lk=3, seed=7)
    assert row["ok"] is True
    assert row["kind"] == "merced" and row["circuit"] == "s27"
    expected = merced_payload(
        Merced(MercedConfig(lk=3, seed=7)).run(load_circuit("s27"))
    )
    assert row["value"] == expected


# ----------------------------------------------------------------------
# coalescing — the tentpole's core mechanic
# ----------------------------------------------------------------------
def test_eight_concurrent_identical_submissions_execute_once(boot):
    """ISSUE acceptance: 8 identical concurrent submissions → ONE
    pipeline execution, all 8 payloads bit-identical and equal to a
    direct inline ``Merced.run``."""
    _, client = boot()
    rows = _in_threads(
        8, lambda i: client.compile_point(circuit="s27", lk=3, seed=7)
    )
    assert all(row["ok"] for row in rows)
    expected = merced_payload(
        Merced(MercedConfig(lk=3, seed=7)).run(load_circuit("s27"))
    )
    encoded = {json.dumps(row["value"], sort_keys=True) for row in rows}
    assert encoded == {json.dumps(expected, sort_keys=True)}

    counters = client.metrics()["counters"]
    cache = client.metrics()["cache"]
    # exactly one execution: one fresh run, one store; every other
    # submission was coalesced onto it or served from the disk cache or
    # the in-memory hot tier it fed (a late arrival, after the run ended)
    assert counters["executed"] == 1
    assert cache["stores"] == 1
    served = counters["coalesced"] + counters["hot_hits"]
    assert served + counters["cache_hits"] == 7
    assert counters["completed_ok"] + served == 8


def test_concurrent_duplicate_is_coalesced_not_reexecuted(boot):
    """Deterministic two-client overlap: the late duplicate must ride
    the in-flight execution (coalesce counter, shared payload)."""
    _, client = boot()
    submission = dict(kind="_spin", params={"seconds": 0.6})
    first_row = {}

    def primary():
        first_row.update(client.compile_point(**submission))

    thread = threading.Thread(target=primary)
    thread.start()
    time.sleep(0.2)  # well inside the 0.6s spin
    duplicate = client.compile_point(**submission)
    thread.join(30.0)
    assert not thread.is_alive()

    assert first_row["ok"] and duplicate["ok"]
    assert duplicate["coalesced"] is True
    assert first_row["coalesced"] is False
    assert duplicate["value"] == first_row["value"]
    counters = client.metrics()["counters"]
    assert counters["admitted"] == 1
    assert counters["coalesced"] == 1
    assert client.metrics()["cache"]["stores"] == 1


def test_sequential_duplicate_served_from_disk_cache(boot):
    _, client = boot()
    first = client.compile_point(circuit="s27", lk=3, seed=7)
    again = client.compile_point(circuit="s27", lk=3, seed=7)
    assert first["cache_hit"] is False
    assert again["cache_hit"] is True
    assert again["attempts"] == 0
    assert again["value"] == first["value"]
    assert client.metrics()["cache"]["stores"] == 1


# ----------------------------------------------------------------------
# hot tier
# ----------------------------------------------------------------------
def _raw_post(port, path, payload):
    """POST ``payload`` as JSON; return the 200 response's body bytes."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60.0)
    try:
        conn.request(
            "POST",
            path,
            body=json.dumps(payload).encode("utf-8"),
            headers={"Content-Type": "application/json"},
        )
        response = conn.getresponse()
        assert response.status == 200
        return response.read()
    finally:
        conn.close()


def test_hot_hit_response_bytes_match_first_cached_response(boot):
    """The hot tier's spliced bytes must decode to the same value the
    executed response served, and be exactly the bytes the encoder
    would have written for the whole response."""
    handle, client = boot()
    first = client.compile_point(circuit="s27", lk=4)
    raw = _raw_post(handle.port, "/v1/compile", {"circuit": "s27", "lk": 4})
    hot = json.loads(raw)
    assert hot["hot"] is True and hot["cache_hit"] is True
    assert json.dumps(hot["value"], sort_keys=True) == json.dumps(
        first["value"], sort_keys=True
    )
    assert raw == (json.dumps(hot, sort_keys=True) + "\n").encode("utf-8")
    counters = client.metrics()["counters"]
    assert counters["executed"] == 1 and counters["hot_hits"] == 1


# ----------------------------------------------------------------------
# backpressure
# ----------------------------------------------------------------------
def test_over_capacity_submission_gets_429_not_queued(boot):
    _, client = boot(workers=1, queue_capacity=1)
    slow = threading.Thread(
        target=lambda: client.compile_point(
            kind="_spin", params={"seconds": 1.0}
        )
    )
    slow.start()
    time.sleep(0.2)
    t0 = time.perf_counter()
    with pytest.raises(ServiceRejectedError) as err:
        client.compile_point(kind="_spin", params={"seconds": 1.0, "b": 1})
    assert time.perf_counter() - t0 < 1.0, "rejection must be immediate"
    assert err.value.status == 429
    assert err.value.payload["error_type"] == "ServiceOverloaded"
    assert err.value.payload["retry_after"] > 0
    slow.join(30.0)
    assert not slow.is_alive()
    assert client.metrics()["counters"]["rejected_backpressure"] == 1


def test_burst_sweep_degrades_per_point_instead_of_hanging(boot):
    """An over-capacity burst yields reject rows, not hangs — the whole
    batch still answers promptly."""
    _, client = boot(workers=1, queue_capacity=2)
    submissions = [
        {"kind": "_spin", "params": {"seconds": 0.3, "tag": i}}
        for i in range(8)
    ]
    t0 = time.perf_counter()
    rows = client.sweep(submissions)
    elapsed = time.perf_counter() - t0
    assert elapsed < 15.0
    assert len(rows) == 8
    accepted = [r for r in rows if r["status"] == 200]
    rejected = [r for r in rows if r["status"] == 429]
    assert len(accepted) == 2 and all(r["ok"] for r in accepted)
    assert len(rejected) == 6
    assert all(
        r["error_type"] == "ServiceOverloaded" and "retry_after" in r
        for r in rejected
    )


def _hold_only_slot(client, seconds):
    """Start a ``_spin`` that owns the only slot; returns its thread."""
    blocker = threading.Thread(
        target=lambda: client.compile_point(
            kind="_spin", params={"seconds": seconds}
        )
    )
    blocker.start()
    time.sleep(0.3)
    return blocker


def test_client_retries_busy_until_capacity_frees(boot):
    handle, _ = boot(
        workers=1, queue_capacity=1, retry_after=0.2, hot_entries=0
    )
    client = ServiceClient(port=handle.port, timeout=60.0, retries=6)
    blocker = _hold_only_slot(client, 1.2)
    # fails hard without retries; with them, the Retry-After backoff
    # outlives the spin and the point lands
    row = client.compile_point(circuit="s27", lk=3, seed=7)
    blocker.join(30.0)
    assert not blocker.is_alive()
    assert row["ok"] is True
    counters = handle.service.metrics.as_dict()["counters"]
    assert counters["rejected_backpressure"] >= 1


def test_client_opt_out_fails_fast(boot):
    handle, _ = boot(
        workers=1, queue_capacity=1, retry_after=0.2, hot_entries=0
    )
    client = ServiceClient(
        port=handle.port, timeout=60.0, retry_on_busy=False
    )
    blocker = _hold_only_slot(client, 1.0)
    try:
        with pytest.raises(ServiceRejectedError) as err:
            client.compile_point(circuit="s27", lk=3, seed=7)
    finally:
        blocker.join(30.0)
    assert err.value.status == 429
    # one rejection on the wire, zero retries behind it
    counters = handle.service.metrics.as_dict()["counters"]
    assert counters["rejected_backpressure"] == 1


# ----------------------------------------------------------------------
# lint-only mode
# ----------------------------------------------------------------------
def test_lint_only_answers_without_admitting_or_executing(boot):
    _, client = boot()
    row = client.compile_point(
        circuit="s27", lk=3, seed=7, mode="lint_only"
    )
    assert row["ok"] is False
    assert row["degraded"] == "lint_only"
    assert row["error_type"] == "DegradedAnswer"
    assert row["error"] == "lint-only analysis as the client asked, no compile"
    assert "summary" in row["lint"]
    counters = client.metrics()["counters"]
    assert counters["lint_only_served"] == 1
    assert counters["admitted"] == 0 and counters["executed"] == 0


def test_lint_only_without_capacity_is_429(boot):
    _, client = boot(lint_capacity=0)
    with pytest.raises(ServiceRejectedError) as err:
        client.compile_point(circuit="s27", lk=3, mode="lint_only")
    assert err.value.status == 429
    assert err.value.payload["error_type"] == "ServiceOverloaded"
    assert client.metrics()["counters"]["rejected_lint_queue"] == 1


# ----------------------------------------------------------------------
# deadlines
# ----------------------------------------------------------------------
def test_request_deadline_enforced_off_main_thread(boot):
    """The service runs points on executor threads, exactly where the
    pre-fix SIGALRM-only enforcement silently did nothing."""
    _, client = boot(workers=1, timeout=0.3)
    t0 = time.perf_counter()
    row = client.compile_point(kind="_spin", params={"seconds": 30.0})
    elapsed = time.perf_counter() - t0
    assert row["ok"] is False
    assert row["error_type"] == "SweepTimeoutError"
    assert elapsed < 10.0
    assert client.metrics()["counters"]["timeouts"] == 1


def test_submission_timeout_is_capped_by_service_ceiling(boot):
    _, client = boot(workers=1, timeout=0.3)
    row = client.compile_point(
        kind="_spin", params={"seconds": 30.0}, timeout=3600.0
    )
    assert row["ok"] is False
    assert row["error_type"] == "SweepTimeoutError"
    assert "0.3" in row["error"]


def test_belt_timeout_strands_slot_and_counts_against_capacity(boot):
    """When the in-thread watchdog is stuck behind a blocking C call
    (``_sleep``), the belt answers the client — and the abandoned
    executor thread must keep counting against admission capacity until
    it actually finishes, then be released."""
    handle, client = boot(
        workers=1,
        queue_capacity=1,
        timeout=0.2,
        belt_slack=0.3,
        drain_grace=1.0,
    )
    row = client.compile_point(kind="_sleep", params={"seconds": 3.0})
    assert row["ok"] is False
    assert row["error_type"] == "SweepTimeoutError"
    assert "watchdog did not fire" in row["error"]

    health = client.wait_ready()
    assert health["queue_depth"] == 0
    assert health["stranded"] == 1
    # the stranded thread still owns the only worker: reject, don't queue
    with pytest.raises(ServiceRejectedError) as err:
        client.compile_point(kind="_sleep", params={"seconds": 0.05})
    assert err.value.status == 429

    # once the blocking call returns the slot is released again
    give_up = time.perf_counter() + 10.0
    while time.perf_counter() < give_up:
        if client.wait_ready()["stranded"] == 0:
            break
        time.sleep(0.05)
    assert client.wait_ready()["stranded"] == 0
    ok = client.compile_point(kind="_sleep", params={"seconds": 0.05})
    assert ok["ok"] is True


def test_drain_is_bounded_despite_stranded_thread(boot):
    """drain_grace is a real upper bound: a stranded executor thread
    (blocking C call outliving its belt) must not hang the drain."""
    handle, client = boot(
        workers=1, timeout=0.2, belt_slack=0.3, drain_grace=0.5
    )
    row = client.compile_point(kind="_sleep", params={"seconds": 4.0})
    assert row["error_type"] == "SweepTimeoutError"
    t0 = time.perf_counter()
    handle.drain(timeout=30.0)
    assert time.perf_counter() - t0 < 3.0, "drain must not join stranded work"


# ----------------------------------------------------------------------
# graceful drain
# ----------------------------------------------------------------------
def test_drain_finishes_inflight_rejects_new_flushes_tmp(boot, tmp_path):
    handle, client = boot(workers=1)
    cache_dir = tmp_path / "cache0"
    inflight = {}
    worker = threading.Thread(
        target=lambda: inflight.update(
            client.compile_point(kind="_spin", params={"seconds": 0.8})
        )
    )
    worker.start()
    time.sleep(0.25)
    # a crashed writer's leftover, for drain's cache flush to reap
    orphan_shard = cache_dir / "ab"
    orphan_shard.mkdir(parents=True, exist_ok=True)
    (orphan_shard / ".tmp-orphan.json").write_text("{}")

    drainer = threading.Thread(target=handle.drain)
    drainer.start()
    time.sleep(0.1)  # drain flag is up, in-flight spin still running
    with pytest.raises(ServiceRejectedError) as err:
        client.compile_point(kind="_spin", params={"seconds": 0.1})
    assert err.value.status == 503
    assert err.value.payload["error_type"] == "ServiceDraining"

    drainer.join(30.0)
    worker.join(30.0)
    assert not drainer.is_alive() and not worker.is_alive()
    # the in-flight request finished normally under drain
    assert inflight["ok"] is True
    # and no temp files survive anywhere in the cache tree
    leftovers = [
        p for p in cache_dir.rglob("*") if p.name.startswith(".tmp-")
    ]
    assert leftovers == []


# ----------------------------------------------------------------------
# submission validation
# ----------------------------------------------------------------------
def test_unknown_submission_key_is_400(boot):
    _, client = boot()
    with pytest.raises(ServiceRejectedError) as err:
        client.compile_point(circuit="s27", bogus=1)
    assert err.value.status == 400
    assert "bogus" in err.value.payload["error"]


def test_fault_injection_kinds_locked_out_by_default(boot):
    """Underscore-prefixed kinds run failure paths (up to os._exit of
    the service process) and must never be admitted from the network
    unless a test deployment opts in."""
    _, client = boot(allow_fault_kinds=False)
    for kind in ("_exit", "_sleep", "_spin", "_raise"):
        with pytest.raises(ServiceRejectedError) as err:
            client.compile_point(kind=kind, params={})
        assert err.value.status == 400
        assert "fault-injection" in err.value.payload["error"]
    # the opt-in is what the rest of this suite runs under
    assert client.metrics()["counters"]["admitted"] == 0


def test_unknown_kind_is_400(boot):
    _, client = boot()
    with pytest.raises(ServiceRejectedError) as err:
        client.compile_point(circuit="s27", kind="nope")
    assert err.value.status == 400
    assert "unknown task kind" in err.value.payload["error"]


def test_malformed_bench_is_400_with_line_context(boot):
    _, client = boot()
    with pytest.raises(ServiceRejectedError) as err:
        client.compile_point(
            circuit="broken", bench="INPUT(x)\nOUTPUT(y)\nthis is junk\n"
        )
    assert err.value.status == 400
    assert err.value.payload["error_type"] == "BenchParseError"
    assert "line 3" in err.value.payload["error"]


@pytest.mark.parametrize("mode", ["cache_only", "bogus"])
def test_unknown_mode_is_400(boot, mode):
    _, client = boot()
    with pytest.raises(ServiceRejectedError) as err:
        client.compile_point(circuit="s27", lk=3, mode=mode)
    assert err.value.status == 400
    assert "unknown mode" in err.value.payload["error"]


@pytest.mark.parametrize(
    "timeout",
    [
        -1.0,
        float("nan"),
        float("inf"),
        pytest.param(10**400, id="int-beyond-float"),
        True,
        False,
        "5",
    ],
)
def test_nonpositive_or_non_number_timeout_is_400(boot, timeout):
    _, client = boot()
    with pytest.raises(ServiceRejectedError) as err:
        client.compile_point(circuit="s27", timeout=timeout)
    assert err.value.status == 400
    if isinstance(timeout, (bool, str)):
        assert type(timeout).__name__ in err.value.payload["error"]
    counters = client.metrics()["counters"]
    assert counters["admitted"] == 0 and counters["watchdog_missed"] == 0


@pytest.mark.parametrize(
    "field, value",
    [
        ("alpha", float("nan")),
        ("alpha", float("inf")),
        ("optimize_budget", float("nan")),
        pytest.param("delta", 10**400, id="delta-int-beyond-float"),
        pytest.param("alpha", 10**400, id="alpha-int-beyond-float"),
        pytest.param("cap", 10**400, id="cap-int-beyond-float"),
        pytest.param(
            "optimize_budget", 10**400, id="optimize_budget-int-beyond-float"
        ),
    ],
)
def test_non_finite_config_is_400(boot, field, value):
    """NaN used to compile (alpha=NaN gave a wrong Σ, then cached it),
    and so did an int beyond the float range for alpha or cap."""
    _, client = boot()
    with pytest.raises(ServiceRejectedError) as err:
        client.compile_point(circuit="s27", lk=3, **{field: value})
    assert err.value.status == 400
    assert err.value.payload["error_type"] == "ConfigError"
    assert client.metrics()["counters"]["admitted"] == 0


@pytest.mark.parametrize("field, value", [("lk", 3.5), ("merge_clusters", "no")])
def test_wrong_typed_config_is_400(boot, field, value):
    """Both used to compile: l_k 3.5 as an ok row cached under its own
    key, and the truthy string "no" ran the merge."""
    _, client = boot()
    with pytest.raises(ServiceRejectedError) as err:
        client.compile_point(circuit="s27", **{field: value})
    assert err.value.status == 400
    assert err.value.payload["error_type"] == "ConfigError"
    assert client.metrics()["counters"]["admitted"] == 0


def test_missing_circuit_and_bench_is_400(boot):
    _, client = boot()
    with pytest.raises(ServiceRejectedError) as err:
        client.compile_point()
    assert err.value.status == 400
