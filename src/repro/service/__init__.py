"""The ``merced serve`` compile service: HTTP/JSON over the sweep farm.

The sweep farm (:mod:`repro.exec`) already hardened per-point
execution — this package puts a long-running, asyncio front-end on top
of it so work can arrive from *outside* the process:

* :mod:`repro.service.protocol` — a minimal stdlib HTTP/1.1 codec
  (JSON in, JSON out, ``Content-Length`` framing, hard size limits);
* :mod:`repro.service.server` — :class:`CompileService`: request
  coalescing keyed by :func:`~repro.exec.hashing.point_key`, a bounded
  admission queue with ``429`` backpressure, per-request deadlines
  enforced off the main thread by :mod:`repro.exec.watchdog`, an
  in-memory hot tier of pre-serialized payloads above the disk cache,
  graceful SIGTERM drain, and a ``/metrics`` endpoint;
* :mod:`repro.service.client` — :class:`ServiceClient`, the thin
  blocking client the ``merced submit`` CLI and the tests share, with
  ``Retry-After``-honoring busy retries;
* :mod:`repro.service.cli` — the ``merced serve`` / ``merced submit``
  subcommand entry points.

Payloads returned over the wire are bit-identical to inline
:class:`~repro.core.merced.Merced` runs: the service executes the same
:func:`~repro.exec.task.run_point` kinds through the same farm and
cache, and its responses are JSON-stable (sorted keys) so equality is
byte equality.
"""

from .client import ServiceClient

#: The asyncio server, imported on first access so a process that only
#: submits work never loads it.
_LAZY = {
    "CompileService": "server",
    "ServiceConfig": "server",
    "ServiceMetrics": "server",
    "ServiceThread": "server",
}

__all__ = [
    "ServiceClient",
    "CompileService",
    "ServiceConfig",
    "ServiceMetrics",
    "ServiceThread",
]


def __getattr__(name):
    if name in _LAZY:
        from importlib import import_module

        return getattr(import_module(f"{__name__}.{_LAZY[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
