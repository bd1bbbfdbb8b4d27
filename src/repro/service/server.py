"""`CompileService` — the long-running asyncio compile server.

One process, one event loop, a bounded thread-pool of execution slots.
Requests arrive over the minimal HTTP codec
(:mod:`repro.service.protocol`), are validated into
:class:`~repro.exec.task.SweepPoint` form, and are executed by the
hardened :class:`~repro.exec.pool.SweepFarm` on executor threads — off
the main thread, which is exactly the embedding the farm's deadline
watchdog (:mod:`repro.exec.watchdog`) was built for.

Core mechanics:

* **Coalescing** — in-flight requests are keyed by
  :func:`~repro.exec.hashing.point_key`; N identical concurrent
  submissions share one execution and all N get the (bit-identical)
  payload.  Completed results then serve later duplicates from the
  on-disk :class:`~repro.exec.cache.ResultCache`, so "exactly one
  execution" holds across the in-flight *and* the cached regime.
* **Backpressure** — admission is bounded by ``queue_capacity``
  primary (non-coalesced) requests; beyond that the service answers a
  ``429``-style JSON payload with a ``Retry-After`` hint instead of
  queueing unboundedly.
* **Deadlines** — every request carries a wall-clock budget
  (``timeout`` in the submission, capped by the service default).  The
  farm's watchdog enforces it inside the executor thread; a belt
  timeout in the event loop guarantees the client still gets a timeout
  row even if enforcement is impossible on the platform.
* **Graceful drain** — SIGTERM (wired by ``merced serve``) finishes
  in-flight work, answers new submissions with ``503``, flushes
  orphaned cache temp files, and only then releases the executor.
* **Hot tier** — above the on-disk :class:`~repro.exec.cache.ResultCache`
  sits a bounded in-memory :class:`~repro.exec.cache.HotCache` of
  already-serialized payload bytes.  A hot hit is answered on the event
  loop *before* admission — no executor hop, no disk I/O, no JSON
  re-serialization (the stored bytes are spliced into the response) —
  so repeat-hot circuits cost microseconds and never occupy an
  execution slot.
* **Lint-only mode** — a submission carrying ``"mode": "lint_only"``
  gets a lint-only analysis of the circuit instead of a compile, from a
  dedicated side executor with its own small pending bound, so it is
  answered even when every execution slot is busy.
* **Observability** — ``GET /metrics`` aggregates the service
  counters, p50/p99 request/execute latency histograms
  (:class:`~repro.perf.LatencyHistogram`), queue depth,
  :class:`~repro.exec.cache.CacheStats`, hot-tier stats, and the
  watchdog's armed/fired/unenforced counters.

Endpoints: ``GET /healthz``, ``GET /metrics``, ``POST /v1/compile``
(one submission object), ``POST /v1/sweep`` (``{"points": [...]}``,
each admitted/coalesced/rejected independently).
"""

from __future__ import annotations

import asyncio
import json
import logging
import math
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields
from typing import Dict, Optional, Tuple

from ..circuits.library import load_circuit
from ..config import MercedConfig
from ..errors import ReproError
from ..exec.cache import HotCache, ResultCache
from ..exec.hashing import code_version, point_key, short_key
from ..exec.pool import SweepFarm
from ..exec.task import SweepPoint, TaskResult, known_kinds
from ..exec.watchdog import watchdog_stats
from ..netlist.bench import parse_bench, write_bench
from ..perf import LatencyHistogram
from .protocol import (
    MAX_HEAD_BYTES,
    HTTPRequest,
    ProtocolError,
    RawJSON,
    read_request,
    render_response,
)

__all__ = [
    "ServiceConfig",
    "ServiceMetrics",
    "CompileService",
    "ServiceThread",
    "parse_submission",
    "SUBMISSION_MODES",
]

_log = logging.getLogger("repro.service")

#: MercedConfig field names accepted at a submission's top level.
_CONFIG_KEYS = tuple(f.name for f in fields(MercedConfig))

#: Non-config keys accepted at a submission's top level.
_SUBMISSION_KEYS = ("kind", "circuit", "bench", "params", "timeout", "mode")

#: Service-level execution modes a submission may request.
SUBMISSION_MODES = ("full", "lint_only")

#: Placeholder the hot path splices pre-serialized payload bytes over.
#: ``"value"`` sorts last among the envelope keys, so an ``rpartition``
#: on the quoted sentinel always finds the value slot even if a client
#: names a circuit after the sentinel string.
_HOT_SENTINEL = "__MERCED_HOT_PAYLOAD__"


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables of one :class:`CompileService` instance.

    Attributes:
        host: listen address.
        port: listen port (``0`` = pick a free ephemeral port; the
            bound port is published as ``CompileService.port``).
        workers: executor threads = maximum concurrently *running*
            requests.
        queue_capacity: maximum admitted-but-unfinished primary
            requests (running + queued); beyond this, submissions are
            rejected with a ``429`` payload instead of queueing.
        timeout: default + ceiling per-request deadline in seconds
            (``None`` = no limit; a submission's own ``timeout`` may
            only lower it).
        cache_dir: on-disk result cache directory (``None`` = no cache;
            coalescing still works for concurrent duplicates).
        drain_grace: seconds :meth:`CompileService.drain` waits for
            in-flight work before giving up on it.
        retry_after: ``Retry-After`` hint (seconds) sent with
            backpressure rejections.
        belt_slack: extra seconds the event-loop belt timeout grants
            beyond the request's deadline before abandoning an
            execution whose in-thread watchdog failed to fire.
        allow_fault_kinds: admit underscore-prefixed fault-injection
            task kinds (``_sleep``/``_spin``/``_raise``/``_exit``/...)
            from the network.  **Off by default** — these kinds exist
            to exercise the farm's failure paths and would let any
            client kill the server process (``_exit``) or pin executor
            slots (``_sleep``/``_spin``); enable only for test
            deployments.
        hot_entries: in-memory hot-tier entry bound (``0`` disables the
            hot tier entirely).
        hot_bytes: in-memory hot-tier payload-byte bound.
        lint_capacity: maximum pending ``lint_only`` answers (they run
            on a dedicated side thread, so they are answered even when
            every executor slot is busy); ``0`` disables lint-only
            answers (requests get 429 instead).
    """

    host: str = "127.0.0.1"
    port: int = 8356
    workers: int = 2
    queue_capacity: int = 16
    timeout: Optional[float] = 300.0
    cache_dir: Optional[str] = None
    drain_grace: float = 30.0
    retry_after: float = 1.0
    belt_slack: float = 5.0
    allow_fault_kinds: bool = False
    hot_entries: int = 512
    hot_bytes: int = 64 << 20
    lint_capacity: int = 8


class ServiceMetrics:
    """Thread-safe counters + service-level latency histograms.

    The execution path crosses threads (event loop → executor), so all
    mutation goes through a lock; :meth:`as_dict` snapshots are
    consistent.  The ``request`` histogram times the whole HTTP request,
    ``execute`` runs from admission to farm completion (queue wait
    included); each keeps its sample count and total seconds.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self.latency: Dict[str, LatencyHistogram] = {
            "request": LatencyHistogram(),
            "execute": LatencyHistogram(),
        }
        self.counters: Dict[str, int] = {
            "requests": 0,
            "bad_requests": 0,
            "submissions": 0,
            "admitted": 0,
            "coalesced": 0,
            "rejected_backpressure": 0,
            "rejected_draining": 0,
            "rejected_lint_queue": 0,
            "executed": 0,
            "cache_hits": 0,
            "hot_hits": 0,
            "hot_stores": 0,
            "lint_only_served": 0,
            "completed_ok": 0,
            "failed": 0,
            "timeouts": 0,
            "watchdog_missed": 0,
        }

    def bump(self, name: str) -> None:
        """Add one to counter ``name``."""
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + 1

    def observe_latency(self, name: str, seconds: float) -> None:
        """Record one latency sample on histogram ``name``."""
        with self._lock:
            histogram = self.latency.get(name)
            if histogram is None:
                histogram = self.latency[name] = LatencyHistogram()
            histogram.observe(seconds)

    def as_dict(self) -> Dict[str, object]:
        """Consistent snapshot of counters + latency."""
        with self._lock:
            return {
                "counters": dict(self.counters),
                "latency": {
                    name: histogram.as_dict()
                    for name, histogram in self.latency.items()
                },
            }


def parse_submission(
    submission: Dict[str, object],
    *,
    default_timeout: Optional[float] = None,
    allow_fault_kinds: bool = False,
) -> Tuple[SweepPoint, Optional[float], str]:
    """Validate a submission dict into ``(SweepPoint, deadline, mode)``.

    ``mode`` is the service-level execution mode (one of
    :data:`SUBMISSION_MODES`); it does not enter the point, so a
    ``lint_only`` request hits the hot tier under exactly the key its
    ``full`` counterpart stored.

    Raises ``ValueError``/:class:`~repro.errors.ReproError` for
    malformed submissions (rendered as 400 responses).
    """
    unknown = [
        k
        for k in submission
        if k not in _SUBMISSION_KEYS and k not in _CONFIG_KEYS
    ]
    if unknown:
        raise ValueError(
            f"unknown submission key(s) {sorted(unknown)}; "
            f"accepted: {sorted(_SUBMISSION_KEYS + _CONFIG_KEYS)}"
        )
    mode = submission.get("mode", "full")
    if mode not in SUBMISSION_MODES:
        raise ValueError(
            f"unknown mode {mode!r} (known: {list(SUBMISSION_MODES)})"
        )
    kind = submission.get("kind", "merced")
    if kind not in known_kinds():
        raise ValueError(
            f"unknown task kind {kind!r} (known: {list(known_kinds())})"
        )
    if str(kind).startswith("_") and not allow_fault_kinds:
        # Fault-injection kinds run arbitrary failure paths —
        # _exit would os._exit() the service process itself, since
        # every point runs inline on an executor thread.
        raise ValueError(
            f"fault-injection kind {kind!r} is disabled; set "
            f"ServiceConfig.allow_fault_kinds for test deployments"
        )
    circuit = submission.get("circuit")
    bench = submission.get("bench")
    if bench is not None and not isinstance(bench, str):
        raise ValueError("'bench' must be a string of .bench text")
    if kind in ("merced", "beta"):
        if bench is None:
            if not circuit:
                raise ValueError(
                    "submission needs 'circuit' (a bundled benchmark "
                    "name) or 'bench' (ISCAS89 netlist text)"
                )
            netlist = load_circuit(str(circuit))
            bench = write_bench(netlist)
        else:
            # Parse up front so malformed netlists are a clean 400
            # (with line context) instead of a degraded row.
            parsed = parse_bench(
                bench, name=str(circuit) if circuit else "submission"
            )
            circuit = circuit or parsed.name
    else:
        bench = bench or ""
        circuit = circuit or kind
    config_kwargs = {
        k: submission[k] for k in _CONFIG_KEYS if k in submission
    }
    config = MercedConfig(**config_kwargs)
    params = submission.get("params") or {}
    if not isinstance(params, dict):
        raise ValueError("'params' must be an object")
    point = SweepPoint(
        kind=str(kind),
        circuit=str(circuit),
        bench=bench,
        config=config,
        params=SweepPoint.make_params(params),
    )
    deadline_s = default_timeout
    requested = submission.get("timeout")
    if requested is not None:
        if isinstance(requested, bool) or not isinstance(
            requested, (int, float)
        ):
            raise ValueError(
                f"timeout must be a number of seconds, got "
                f"{type(requested).__name__} {requested!r}"
            )
        try:
            requested = float(requested)
        except OverflowError:  # an int beyond the float range
            requested = math.inf
        if not (math.isfinite(requested) and requested > 0):
            raise ValueError(
                f"timeout must be positive and finite, got {requested}"
            )
        deadline_s = (
            requested if deadline_s is None else min(requested, deadline_s)
        )
    return point, deadline_s, str(mode)


class CompileService:
    """The asyncio compile service behind ``merced serve``.

    All request bookkeeping (coalescing map, admission counter, drain
    flag) lives on the event loop thread — only the farm execution hops
    to the executor — so no locks guard it.

    Example (embedded, see also :class:`ServiceThread`)::

        service = CompileService(ServiceConfig(port=0))
        await service.start()          # service.port is now bound
        ...
        await service.drain()
    """

    def __init__(self, config: Optional[ServiceConfig] = None):
        self.config = config or ServiceConfig()
        self.cache = (
            ResultCache(self.config.cache_dir)
            if self.config.cache_dir
            else None
        )
        self.hot = (
            HotCache(
                max_entries=self.config.hot_entries,
                max_bytes=self.config.hot_bytes,
            )
            if self.config.hot_entries > 0
            else None
        )
        self.metrics = ServiceMetrics()
        self.port: Optional[int] = None
        self._inflight: Dict[str, asyncio.Future] = {}
        self._active = 0
        self._stranded = 0
        self._lint_pending = 0
        self._draining = False
        self._server: Optional[asyncio.AbstractServer] = None
        self._executor: Optional[ThreadPoolExecutor] = None
        self._lint_executor: Optional[ThreadPoolExecutor] = None
        self._code: Optional[str] = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind the listener and ready the execution slots."""
        self._executor = ThreadPoolExecutor(
            max_workers=self.config.workers,
            thread_name_prefix="merced-service",
        )
        if self.config.lint_capacity > 0:
            # One side thread keeps lint-only answers flowing even when
            # every execution slot is pinned.
            self._lint_executor = ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="merced-lint"
            )
        # Hash the code tree once up front, not per request — and off
        # the loop: the first code_version() call reads every package
        # source file from disk.
        self._code = await asyncio.get_running_loop().run_in_executor(
            None, code_version
        )
        # The stream limit only bounds readline/readuntil (the request
        # head); bodies go through readexactly, which is not subject to
        # it.  Keeping the limit head-sized means a client that never
        # sends the head terminator can buffer ~36 KB, not megabytes.
        self._server = await asyncio.start_server(
            self._handle_conn,
            host=self.config.host,
            port=self.config.port,
            limit=MAX_HEAD_BYTES + 4096,
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def drain(self) -> None:
        """Graceful shutdown: finish in-flight, reject new, flush cache.

        New submissions are answered with ``503`` the moment draining
        starts; in-flight requests get up to ``drain_grace`` seconds to
        finish.  The listener closes afterwards (so health checks see
        the port go away last), orphaned cache temp files are flushed,
        and the executor is released.  ``drain_grace`` is a real upper
        bound: stranded threads (belt-expired work stuck in a blocking
        C call) are abandoned, never waited on — the executor is shut
        down without joining, and the cache flush spares temp files
        young enough to belong to a still-running writer.
        """
        self._draining = True
        loop = asyncio.get_running_loop()
        give_up = loop.time() + self.config.drain_grace
        while (self._active or self._stranded) and loop.time() < give_up:
            await asyncio.sleep(0.02)
        # Let the final response writes flush before tearing down.
        await asyncio.sleep(0.05)
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self.cache is not None:
            # With writers provably quiesced every temp file is an
            # orphan; otherwise spare anything young enough to belong
            # to a stranded writer still mid-store.
            quiesced = not self._active and not self._stranded
            min_age = 0.0 if quiesced else max(self.config.drain_grace, 60.0)
            # flush() walks and unlinks on disk; keep it off the loop so
            # a slow filesystem can't stall the final response writes.
            await loop.run_in_executor(
                None, lambda: self.cache.flush(min_age_s=min_age)
            )
        if self._executor is not None:
            self._executor.shutdown(wait=False)
        if self._lint_executor is not None:
            self._lint_executor.shutdown(wait=False)

    @property
    def draining(self) -> bool:
        """True once :meth:`drain` has begun rejecting new work."""
        return self._draining

    # ------------------------------------------------------------------
    # HTTP plumbing
    # ------------------------------------------------------------------
    async def _handle_conn(self, reader, writer) -> None:
        status, payload, extra = 500, {"ok": False, "error": "internal"}, None
        respond = True
        request = None
        try:
            request = await read_request(reader)
            if request is None:
                # Clean disconnect (e.g. a TCP health probe): close
                # without writing — a probe that reads the socket must
                # not see a spurious 500.
                respond = False
                return
            self.metrics.bump("requests")
            t0 = time.perf_counter()
            status, payload, extra = await self._dispatch(request)
            self.metrics.observe_latency(
                "request", time.perf_counter() - t0
            )
        except ProtocolError as exc:
            self.metrics.bump("bad_requests")
            status, payload, extra = (
                exc.status,
                {
                    "ok": False,
                    "error": str(exc),
                    "error_type": "ProtocolError",
                },
                None,
            )
        except Exception as exc:  # never let a request kill the loop
            _log.exception(
                "500 on %s %s",
                getattr(request, "method", "-"),
                getattr(request, "path", "-"),
            )
            status, payload, extra = (
                500,
                {
                    "ok": False,
                    "error": str(exc),
                    "error_type": type(exc).__name__,
                },
                None,
            )
        finally:
            try:
                if respond:
                    writer.write(render_response(status, payload, extra))
                    await writer.drain()
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _dispatch(
        self, request: HTTPRequest
    ) -> Tuple[int, object, Optional[Dict[str, str]]]:
        route = (request.method, request.path)
        if route == ("GET", "/healthz"):
            return 200, self._health_payload(), None
        if route == ("GET", "/metrics"):
            return 200, self.metrics_payload(), None
        if route == ("POST", "/v1/compile"):
            submission = request.json()
            if not isinstance(submission, dict):
                raise ProtocolError(400, "submission must be a JSON object")
            return await self.submit_point(submission)
        if route == ("POST", "/v1/sweep"):
            document = request.json()
            points = (
                document.get("points")
                if isinstance(document, dict)
                else None
            )
            if not isinstance(points, list) or not points:
                raise ProtocolError(
                    400, 'sweep body must be {"points": [submission, ...]}'
                )
            rows = await asyncio.gather(
                *(
                    self.submit_point(p)
                    if isinstance(p, dict)
                    else self._bad_submission("submission must be an object")
                    for p in points
                )
            )
            results = []
            for status, payload, _ in rows:
                if isinstance(payload, RawJSON):
                    # Hot hits splice bytes for the single-point path;
                    # the sweep envelope needs a dict to add `status`.
                    payload = json.loads(payload.data)
                results.append(dict(payload, status=status))
            return 200, {"results": results}, None
        if request.path in ("/healthz", "/metrics", "/v1/compile", "/v1/sweep"):
            raise ProtocolError(405, f"{request.method} not allowed here")
        raise ProtocolError(404, f"no route for {request.path}")

    async def _bad_submission(self, message: str):
        return 400, {
            "ok": False,
            "error": message,
            "error_type": "ProtocolError",
        }, None

    def _health_payload(self) -> Dict[str, object]:
        return {
            "ok": True,
            "draining": self._draining,
            "queue_depth": self._active,
            "stranded": self._stranded,
            "inflight_keys": len(self._inflight),
        }

    def metrics_payload(self) -> Dict[str, object]:
        """The ``/metrics`` document (also handy for embedded use)."""
        snapshot = self.metrics.as_dict()
        return {
            "service": {
                "draining": self._draining,
                "queue_depth": self._active,
                "stranded": self._stranded,
                "queue_capacity": self.config.queue_capacity,
                "inflight_keys": len(self._inflight),
                "workers": self.config.workers,
            },
            "counters": snapshot["counters"],
            "latency": snapshot["latency"],
            "cache": (
                self.cache.stats_snapshot()
                if self.cache is not None
                else None
            ),
            "hot_cache": (
                self.hot.as_dict() if self.hot is not None else None
            ),
            "watchdog": watchdog_stats(),
        }

    # ------------------------------------------------------------------
    # submission path
    # ------------------------------------------------------------------
    async def submit_point(
        self, submission: Dict[str, object]
    ) -> Tuple[int, Dict[str, object], Optional[Dict[str, str]]]:
        """Admit, coalesce, or reject one submission; returns the response.

        The returned tuple is ``(status, payload, extra_headers)``.
        Runs on the event loop; only the farm execution hops to an
        executor thread.
        """
        self.metrics.bump("submissions")
        try:
            point, deadline_s, mode = self._point_from(submission)
        except (ReproError, KeyError, TypeError, ValueError) as exc:
            self.metrics.bump("bad_requests")
            return 400, {
                "ok": False,
                "error": str(exc),
                "error_type": type(exc).__name__,
            }, None

        if self._draining:
            self.metrics.bump("rejected_draining")
            return 503, {
                "ok": False,
                "error": "service is draining; resubmit elsewhere",
                "error_type": "ServiceDraining",
            }, None

        key = point_key(point, self._code)

        # Hot tier first, whatever the mode: answered on the event loop
        # with the stored bytes spliced straight into the response — no
        # admission slot, no executor hop, no disk, no re-serialization.
        if self.hot is not None:
            blob = self.hot.get(key)
            if blob is not None:
                self.metrics.bump("hot_hits")
                return 200, self._hot_response(point, key, blob), None

        if mode == "lint_only":
            return await self._lint_only(point, key)

        existing = self._inflight.get(key)
        if existing is not None:
            self.metrics.bump("coalesced")
            response = dict(await asyncio.shield(existing))
            response["coalesced"] = True
            return 200, response, None

        # Stranded slots (belt-expired work still pinning an executor
        # thread) count against capacity: the workers are genuinely
        # busy, so admitting more would only queue work invisibly.
        occupied = self._active + self._stranded
        if occupied >= self.config.queue_capacity:
            self.metrics.bump("rejected_backpressure")
            retry = self.config.retry_after
            return 429, {
                "ok": False,
                "error": (
                    f"admission queue full "
                    f"({occupied}/{self.config.queue_capacity})"
                ),
                "error_type": "ServiceOverloaded",
                "retry_after": retry,
            }, {"Retry-After": f"{retry:g}"}

        future = asyncio.get_running_loop().create_future()
        self._inflight[key] = future
        self._active += 1
        self.metrics.bump("admitted")
        try:
            response = await self._run_point(point, key, deadline_s)
        except Exception as exc:  # defensive: resolve waiters regardless
            response = {
                "ok": False,
                "key": short_key(key),
                "error": str(exc),
                "error_type": type(exc).__name__,
            }
        finally:
            self._active -= 1
            self._inflight.pop(key, None)
            if not future.done():
                future.set_result(response)
        return 200, response, None

    async def _run_point(
        self, point: SweepPoint, key: str, deadline_s: Optional[float]
    ) -> Dict[str, object]:
        """Execute one admitted point inline on an executor thread.

        One attempt, no worker processes: the service parallelizes
        across requests, not within one, and a compile is deterministic,
        so a retry would only fail the same way again.
        """
        farm = SweepFarm(timeout=deadline_s, retries=0, cache=self.cache)
        loop = asyncio.get_running_loop()
        t0 = time.perf_counter()
        call = loop.run_in_executor(self._executor, farm.map, [point])
        # Belt over the watchdog's braces: if per-attempt enforcement is
        # impossible (no SIGALRM, no async-exc injection, or delivery is
        # stuck behind a blocking C call), the client still gets a
        # timeout row; the stranded thread is abandoned.
        belt = None
        if deadline_s is not None:
            belt = deadline_s + self.config.belt_slack
        try:
            if belt is None:
                results = await call
            else:
                results = await asyncio.wait_for(asyncio.shield(call), belt)
        except asyncio.TimeoutError:
            # The abandoned call keeps pinning its executor thread until
            # the watchdog's async-exc finally lands; account for that
            # slot so admission doesn't oversubscribe the workers.
            self._stranded += 1
            call.add_done_callback(self._release_stranded)
            self.metrics.bump("watchdog_missed")
            self.metrics.bump("timeouts")
            self.metrics.bump("failed")
            return {
                "ok": False,
                "key": short_key(key),
                "kind": point.kind,
                "circuit": point.circuit,
                "error": (
                    f"deadline {deadline_s:g}s expired and the in-thread "
                    f"watchdog did not fire"
                ),
                "error_type": "SweepTimeoutError",
                "coalesced": False,
            }
        self.metrics.observe_latency("execute", time.perf_counter() - t0)
        return self._result_response(results[0], key)

    def _release_stranded(self, call: asyncio.Future) -> None:
        """Free a stranded slot once its abandoned execution finishes.

        Runs on the event loop (future done-callback), so the counter
        needs no lock; the result/exception is consumed so an abandoned
        failure never logs as "exception was never retrieved".
        """
        self._stranded -= 1
        if not call.cancelled():
            call.exception()

    # ------------------------------------------------------------------
    # hot tier + lint-only mode
    # ------------------------------------------------------------------
    def _hot_response(
        self, point: SweepPoint, key: str, blob: bytes
    ) -> RawJSON:
        """The zero-copy response for an in-memory hot-tier hit.

        The envelope is rendered normally (sorted keys) with a sentinel
        in the ``value`` slot, then the pre-serialized payload ``blob``
        is spliced over it — the cached JSON is never decoded.
        ``rpartition`` is safe because ``value`` sorts last among the
        envelope keys, so the final sentinel occurrence is always the
        value slot.
        """
        envelope = {
            "ok": True,
            "key": short_key(key),
            "kind": point.kind,
            "circuit": point.circuit,
            "cache_hit": True,
            "hot": True,
            "coalesced": False,
            "attempts": 0,
            "seconds": 0.0,
            "value": _HOT_SENTINEL,
        }
        rendered = json.dumps(envelope, sort_keys=True)
        head, _, tail = rendered.rpartition(f'"{_HOT_SENTINEL}"')
        return RawJSON(head.encode("utf-8") + blob + tail.encode("utf-8"))

    async def _lint_only(
        self, point: SweepPoint, key: str
    ) -> Tuple[int, object, Optional[Dict[str, str]]]:
        """Serve a lint-only analysis instead of a compile.

        Runs the static linter on a dedicated side thread with its own
        small pending bound, so clients still get circuit feedback when
        every execution slot is busy.  The answer is a *degraded* row
        (``ok: false``, ``degraded: "lint_only"``) — data, not an
        error, matching the farm's degraded-row convention.
        """
        if point.kind not in ("merced", "beta"):
            self.metrics.bump("bad_requests")
            return 400, {
                "ok": False,
                "error": f"mode 'lint_only' needs a circuit kind, "
                f"not {point.kind!r}",
                "error_type": "ValueError",
            }, None
        if (
            self._lint_executor is None
            or self._lint_pending >= self.config.lint_capacity
        ):
            self.metrics.bump("rejected_lint_queue")
            retry = self.config.retry_after
            return 429, {
                "ok": False,
                "error": "lint-only queue full",
                "error_type": "ServiceOverloaded",
                "retry_after": retry,
            }, {"Retry-After": f"{retry:g}"}

        def _run_lint() -> Dict[str, object]:
            from ..analysis.lint import lint_circuit

            netlist = parse_bench(point.bench, name=point.circuit)
            report = lint_circuit(netlist, point.config)
            return {
                "summary": report.summary(),
                "has_errors": report.has_errors,
                "report": report.to_dict(),
            }

        self._lint_pending += 1
        loop = asyncio.get_running_loop()
        t0 = time.perf_counter()
        try:
            lint = await loop.run_in_executor(self._lint_executor, _run_lint)
        except Exception as exc:
            return 200, {
                "ok": False,
                "key": short_key(key),
                "kind": point.kind,
                "circuit": point.circuit,
                "degraded": "lint_only",
                "coalesced": False,
                "error": f"lint-only answer failed: {exc}",
                "error_type": type(exc).__name__,
            }, None
        finally:
            self._lint_pending -= 1
        self.metrics.bump("lint_only_served")
        self.metrics.observe_latency("lint", time.perf_counter() - t0)
        return 200, {
            "ok": False,
            "key": short_key(key),
            "kind": point.kind,
            "circuit": point.circuit,
            "degraded": "lint_only",
            "coalesced": False,
            "error": "lint-only analysis as the client asked, no compile",
            "error_type": "DegradedAnswer",
            "lint": lint,
        }, None

    def _result_response(
        self, result: TaskResult, key: str
    ) -> Dict[str, object]:
        """Shape one farm :class:`TaskResult` into the wire payload."""
        if result.cache_hit:
            self.metrics.bump("cache_hits")
        elif result.ok:
            self.metrics.bump("executed")
        response: Dict[str, object] = {
            "ok": result.ok,
            "key": short_key(key),
            "kind": result.point.kind,
            "circuit": result.point.circuit,
            "cache_hit": result.cache_hit,
            "coalesced": False,
            "attempts": result.attempts,
            "seconds": result.seconds,
        }
        if result.ok:
            self.metrics.bump("completed_ok")
            response["value"] = result.value
            # Feed the hot tier: fresh executions and disk-cache hits
            # alike, so repeat traffic is answered from memory from the
            # second occurrence on.
            if self.hot is not None:
                try:
                    blob = json.dumps(result.value, sort_keys=True).encode(
                        "utf-8"
                    )
                except (TypeError, ValueError):
                    blob = None
                if blob is not None and self.hot.put(key, blob):
                    self.metrics.bump("hot_stores")
        else:
            self.metrics.bump("failed")
            if result.error_type == "SweepTimeoutError":
                self.metrics.bump("timeouts")
            response["error"] = result.error
            response["error_type"] = result.error_type
            response["stage"] = result.stage
            if result.diagnostics:
                response["diagnostics"] = list(result.diagnostics)
        return response

    def _point_from(
        self, submission: Dict[str, object]
    ) -> Tuple[SweepPoint, Optional[float], str]:
        """Validate a submission under this service's config."""
        return parse_submission(
            submission,
            default_timeout=self.config.timeout,
            allow_fault_kinds=self.config.allow_fault_kinds,
        )


class ServiceThread:
    """Run a :class:`CompileService` on a private loop in a daemon thread.

    The embedding used by the test-suite and by blocking callers (e.g.
    a notebook) that want the service without owning an event loop::

        handle = ServiceThread(ServiceConfig(port=0))
        handle.start()                  # blocks until the port is bound
        client = ServiceClient(port=handle.port)
        ...
        handle.stop()                   # drains, then stops the loop
    """

    def __init__(self, config: Optional[ServiceConfig] = None):
        self.service = CompileService(config)
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._started = threading.Event()
        self._startup_error: Optional[BaseException] = None

    @property
    def port(self) -> Optional[int]:
        """The bound port once :meth:`start` has returned."""
        return self.service.port

    def start(self, timeout: float = 10.0) -> "ServiceThread":
        """Start the loop thread; blocks until the listener is bound."""
        self._thread = threading.Thread(
            target=self._run, name="merced-serve", daemon=True
        )
        self._thread.start()
        if not self._started.wait(timeout):
            raise RuntimeError("service failed to start in time")
        if self._startup_error is not None:
            raise RuntimeError(
                f"service failed to start: {self._startup_error}"
            )
        return self

    def _run(self) -> None:
        self._loop = asyncio.new_event_loop()
        try:
            try:
                self._loop.run_until_complete(self.service.start())
            except BaseException as exc:
                self._startup_error = exc
                return
            finally:
                self._started.set()
            self._loop.run_forever()
        finally:
            self._loop.close()

    def drain(self, timeout: float = 60.0) -> None:
        """Run the service's graceful drain from the calling thread."""
        if self._loop is None:
            return
        future = asyncio.run_coroutine_threadsafe(
            self.service.drain(), self._loop
        )
        future.result(timeout)

    def stop(self, timeout: float = 60.0) -> None:
        """Drain, stop the loop, and join the thread."""
        if self._loop is None:
            return
        if not self.service.draining:
            self.drain(timeout)
        self._loop.call_soon_threadsafe(self._loop.stop)
        if self._thread is not None:
            self._thread.join(timeout)
