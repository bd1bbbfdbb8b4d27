"""Thin blocking client for the ``merced serve`` compile service.

One class, stdlib-only (``http.client``), speaking the JSON protocol of
:mod:`repro.service.server`.  Used by the ``merced submit`` CLI, the
test-suite, and any embedding that wants compile results over the wire
— all three therefore exercise the exact same protocol surface.

Transport errors surface as :class:`~repro.errors.ServiceError`;
non-200 responses (backpressure ``429``, drain ``503``, malformed
``400``) raise :class:`~repro.errors.ServiceRejectedError` with the
response payload attached.  A ``200`` with ``"ok": false`` is *not* an
exception — that is a degraded compile result, delivered as data, same
as the farm's error rows.

Backpressure is retried, not failed: a ``429`` answer carries the
service's ``Retry-After`` hint, and the client honors it with bounded,
jittered, exponentially backed-off retries (``retries`` attempts,
``retry_on_busy=False`` to opt out) before surfacing the rejection.
Jitter matters — the 429 means the service is saturated, and N clients
retrying on the exact same hint would arrive as one synchronized
stampede.
"""

from __future__ import annotations

import http.client
import json
import random
import time
from typing import Dict, List, Optional, Tuple

from ..errors import ServiceError, ServiceRejectedError

__all__ = ["ServiceClient"]


class ServiceClient:
    """Blocking JSON-over-HTTP client for one compile service endpoint.

    Example::

        client = ServiceClient(port=8356)
        client.wait_ready()
        row = client.compile_point(circuit="s27", lk=3)
        assert row["ok"] and row["value"]["n_partitions"] >= 1
    """

    #: Backoff ceiling for one busy-retry sleep, in seconds.
    MAX_RETRY_SLEEP = 30.0

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8356,
        timeout: float = 600.0,
        retries: int = 4,
        retry_on_busy: bool = True,
    ):
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        self.host = host
        self.port = port
        self.timeout = timeout
        self.retries = retries
        self.retry_on_busy = retry_on_busy
        # Backoff jitter must differ *between* clients (that's the
        # point of jitter), so this RNG is deliberately OS-seeded —
        # not the deterministic stream the kernels require.
        self._jitter = random.Random()  # lint: disable=KRN002

    # ------------------------------------------------------------------
    # transport
    # ------------------------------------------------------------------
    def _request(
        self, method: str, path: str, payload: Optional[object] = None
    ) -> Tuple[int, object, Optional[float]]:
        """One exchange; returns ``(status, json_body, retry_after)``."""
        body = None
        headers = {}
        if payload is not None:
            body = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        conn = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )
        try:
            conn.request(method, path, body=body, headers=headers)
            response = conn.getresponse()
            raw = response.read()
        except (OSError, http.client.HTTPException) as exc:
            raise ServiceError(
                f"compile service at {self.host}:{self.port} "
                f"unreachable: {exc}"
            ) from exc
        finally:
            conn.close()
        try:
            document = json.loads(raw.decode("utf-8")) if raw else None
        except (UnicodeDecodeError, ValueError) as exc:
            raise ServiceError(
                f"malformed response from service (HTTP {response.status})"
            ) from exc
        retry_after = None
        hint = response.getheader("Retry-After")
        if hint is not None:
            try:
                retry_after = float(hint)
            except ValueError:
                pass  # HTTP-date form: fall back to the payload/default
        return response.status, document, retry_after

    def _checked(self, method: str, path: str, payload=None) -> object:
        budget = self.retries if self.retry_on_busy else 0
        for attempt in range(budget + 1):
            status, document, retry_after = self._request(
                method, path, payload
            )
            if status != 429 or attempt == budget:
                break
            if retry_after is None and isinstance(document, dict):
                hinted = document.get("retry_after")
                if isinstance(hinted, (int, float)):
                    retry_after = float(hinted)
            # Exponential backoff from the service's hint, jittered so
            # coordinated clients don't re-stampede in lockstep.
            base = min(
                (retry_after or 0.5) * (2**attempt), self.MAX_RETRY_SLEEP
            )
            time.sleep(base * (0.75 + 0.5 * self._jitter.random()))
        if status != 200:
            raise ServiceRejectedError(status, document)
        return document

    # ------------------------------------------------------------------
    # API surface
    # ------------------------------------------------------------------
    def health(self) -> Dict[str, object]:
        """``GET /healthz`` — liveness + drain state + queue depth."""
        return self._checked("GET", "/healthz")

    def metrics(self) -> Dict[str, object]:
        """``GET /metrics`` — counters, latency, cache + watchdog stats."""
        return self._checked("GET", "/metrics")

    def wait_ready(self, timeout: float = 10.0) -> Dict[str, object]:
        """Poll ``/healthz`` until the service answers; returns the payload.

        Raises :class:`~repro.errors.ServiceError` when the budget runs
        out (e.g. ``merced serve`` crashed during startup).
        """
        give_up = time.monotonic() + timeout
        last: Optional[Exception] = None
        while time.monotonic() < give_up:
            try:
                return self.health()
            except ServiceError as exc:
                last = exc
                time.sleep(0.05)
        raise ServiceError(
            f"service at {self.host}:{self.port} not ready "
            f"after {timeout:g}s: {last}"
        )

    def compile_point(
        self,
        circuit: Optional[str] = None,
        bench: Optional[str] = None,
        kind: str = "merced",
        params: Optional[Dict[str, object]] = None,
        timeout: Optional[float] = None,
        **config,
    ) -> Dict[str, object]:
        """``POST /v1/compile`` one submission; returns the result row.

        ``config`` keys are :class:`~repro.config.MercedConfig` fields
        (``lk``, ``beta``, ``seed``, ...).  Raises
        :class:`~repro.errors.ServiceRejectedError` on 4xx/5xx; a
        degraded result (``"ok": false``) is returned as data.
        """
        submission: Dict[str, object] = {"kind": kind, **config}
        if circuit is not None:
            submission["circuit"] = circuit
        if bench is not None:
            submission["bench"] = bench
        if params:
            submission["params"] = params
        if timeout is not None:
            submission["timeout"] = timeout
        return self._checked("POST", "/v1/compile", submission)

    def sweep(
        self, submissions: List[Dict[str, object]]
    ) -> List[Dict[str, object]]:
        """``POST /v1/sweep`` many submissions; returns one row per point.

        Rows carry their individual ``status`` (200 result, 429
        backpressure rejection, ...) — an over-capacity burst degrades
        per-point instead of failing the whole batch.
        """
        document = self._checked("POST", "/v1/sweep", {"points": submissions})
        return document["results"]

    @classmethod
    def from_url(cls, url: str, timeout: float = 600.0) -> "ServiceClient":
        """Build a client from ``http://host:port`` (scheme optional)."""
        stripped = url.strip()
        for prefix in ("http://", "https://"):
            if stripped.startswith(prefix):
                stripped = stripped[len(prefix):]
        stripped = stripped.rstrip("/")
        host, _, port_text = stripped.partition(":")
        if not host:
            raise ServiceError(f"invalid service URL {url!r}")
        try:
            port = int(port_text) if port_text else 8356
        except ValueError as exc:
            raise ServiceError(f"invalid service URL {url!r}") from exc
        return cls(host=host, port=port, timeout=timeout)
