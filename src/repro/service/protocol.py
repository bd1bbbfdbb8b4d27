"""Minimal HTTP/1.1 codec for the ``merced serve`` compile service.

The service speaks plain HTTP so any client — ``curl``, a load
balancer's health checker, the bundled :mod:`repro.service.client` —
can talk to it, but it deliberately implements only the slice the
protocol needs: one JSON request per connection, ``Content-Length``
framing (no chunked encoding), and ``Connection: close`` responses.
Everything is stdlib ``asyncio`` stream reads; there is no third-party
HTTP dependency anywhere in the package.

Hard limits keep a misbehaving client from ballooning memory: request
heads are capped at :data:`MAX_HEAD_BYTES` and bodies at
:data:`MAX_BODY_BYTES` (both generous for ``.bench`` payloads — the
largest bundled benchmark serializes to well under 2 MB).
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from typing import Dict, Optional

__all__ = [
    "MAX_HEAD_BYTES",
    "MAX_BODY_BYTES",
    "ProtocolError",
    "HTTPRequest",
    "RawJSON",
    "read_request",
    "render_response",
]

#: Upper bound on the request line + headers, in bytes.
MAX_HEAD_BYTES = 32 * 1024

#: Upper bound on a request body, in bytes.
MAX_BODY_BYTES = 16 * 1024 * 1024

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


class RawJSON:
    """Pre-serialized JSON body bytes, passed through verbatim.

    The service's hot tier stores payloads as already-serialized bytes;
    wrapping them in ``RawJSON`` lets :func:`render_response` frame them
    without a decode/encode round trip.  The bytes must be a complete
    JSON document *without* a trailing newline (the renderer adds it,
    matching the dict path).
    """

    __slots__ = ("data",)

    def __init__(self, data: bytes):
        self.data = data


class ProtocolError(Exception):
    """A malformed or over-limit HTTP request.

    Carries the HTTP ``status`` the server should answer with; the
    connection handler renders it as a JSON error payload.
    """

    def __init__(self, status: int, message: str):
        self.status = status
        super().__init__(message)


@dataclass
class HTTPRequest:
    """One parsed HTTP request.

    Attributes:
        method: upper-cased HTTP method (``GET``, ``POST``, ...).
        path: the request target without any query string.
        headers: header map with lower-cased keys (last value wins).
        body: raw request body bytes (empty when no ``Content-Length``).
    """

    method: str
    path: str
    headers: Dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    def json(self) -> object:
        """Decode the body as JSON; :class:`ProtocolError` (400) if invalid."""
        if not self.body:
            raise ProtocolError(400, "request body required")
        try:
            return json.loads(self.body.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as exc:
            raise ProtocolError(400, f"invalid JSON body: {exc}") from exc


async def read_request(reader: asyncio.StreamReader) -> Optional[HTTPRequest]:
    """Read and parse one HTTP request from ``reader``.

    Returns ``None`` when the peer closed the connection before sending
    anything (a clean disconnect, e.g. a TCP health probe).  Malformed
    or over-limit requests raise :class:`ProtocolError` with the HTTP
    status to respond with.
    """
    # Read the head line by line so the MAX_HEAD_BYTES cap is enforced
    # *incrementally*: a client streaming headers without ever sending
    # the blank line gets its 431 after ~32 KB, not after filling the
    # stream buffer to its (much larger) limit.
    head = bytearray()
    while True:
        try:
            line = await reader.readuntil(b"\r\n")
        except asyncio.IncompleteReadError as exc:
            if not exc.partial and not head:
                return None
            raise ProtocolError(400, "truncated request head") from exc
        except asyncio.LimitOverrunError as exc:
            raise ProtocolError(431, "request head too large") from exc
        head += line
        if len(head) > MAX_HEAD_BYTES:
            raise ProtocolError(431, "request head too large")
        if line == b"\r\n":
            break
    head = bytes(head)

    try:
        lines = head.decode("latin-1").split("\r\n")
        method, target, version = lines[0].split(" ", 2)
    except (UnicodeDecodeError, ValueError) as exc:
        raise ProtocolError(400, "malformed request line") from exc
    if not version.startswith("HTTP/1."):
        raise ProtocolError(400, f"unsupported protocol {version!r}")

    headers: Dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep:
            raise ProtocolError(400, f"malformed header line {line!r}")
        headers[name.strip().lower()] = value.strip()

    body = b""
    if "content-length" in headers:
        try:
            length = int(headers["content-length"])
        except ValueError as exc:
            raise ProtocolError(400, "invalid Content-Length") from exc
        if length < 0:
            raise ProtocolError(400, "invalid Content-Length")
        if length > MAX_BODY_BYTES:
            raise ProtocolError(413, "request body too large")
        try:
            body = await reader.readexactly(length)
        except asyncio.IncompleteReadError as exc:
            raise ProtocolError(400, "truncated request body") from exc
    elif headers.get("transfer-encoding"):
        raise ProtocolError(400, "chunked request bodies are not supported")

    path = target.partition("?")[0]
    return HTTPRequest(
        method=method.upper(), path=path, headers=headers, body=body
    )


def render_response(
    status: int,
    payload: Optional[object] = None,
    extra_headers: Optional[Dict[str, str]] = None,
) -> bytes:
    """Serialize one ``Connection: close`` HTTP/1.1 JSON response.

    ``payload`` is JSON-encoded with sorted keys (byte-stable responses
    for identical results — the coalescing tests compare them
    verbatim); a :class:`RawJSON` is framed as-is (the hot path's
    pre-serialized bytes); ``None`` sends an empty body.
    """
    body = b""
    if isinstance(payload, RawJSON):
        body = payload.data + b"\n"
    elif payload is not None:
        body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
    reason = _REASONS.get(status, "Unknown")
    lines = [
        f"HTTP/1.1 {status} {reason}",
        "Content-Type: application/json",
        f"Content-Length: {len(body)}",
        "Connection: close",
    ]
    for name, value in (extra_headers or {}).items():
        lines.append(f"{name}: {value}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body

