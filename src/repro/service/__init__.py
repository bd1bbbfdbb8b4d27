"""The ``merced serve`` compile service: HTTP/JSON over the sweep farm.

The ROADMAP's north star is a system that serves traffic from many
clients, and the sweep farm (:mod:`repro.exec`) already hardened
per-point execution — this package puts a long-running, asyncio
front-end on top of it so work can arrive from *outside* the process:

* :mod:`repro.service.protocol` — a minimal stdlib HTTP/1.1 codec
  (JSON in, JSON out, ``Content-Length`` framing, hard size limits);
* :mod:`repro.service.server` — :class:`CompileService`: request
  coalescing keyed by :func:`~repro.exec.hashing.point_key`, a bounded
  admission queue with ``429`` backpressure, per-request deadlines
  enforced off the main thread by :mod:`repro.exec.watchdog`, graceful
  SIGTERM drain, and a ``/metrics`` endpoint;
* :mod:`repro.service.client` — :class:`ServiceClient`, the thin
  blocking client the ``merced submit`` CLI, the tests, and the fleet
  all share, with ``Retry-After``-honoring busy retries;
* :mod:`repro.service.router` — :class:`FleetRouter`: a consistent-hash
  front router that keys on the same
  :func:`~repro.exec.hashing.point_key` the workers coalesce by, with
  graduated load-shedding (full → cache_only → lint_only → 429) and
  fleet-wide ``/metrics`` aggregation;
* :mod:`repro.service.fleet` — :class:`CompileFleet` /
  :class:`FleetThread`: N worker shard processes (each with its own
  in-memory hot tier and cache slice) behind one router — the
  ``merced serve --shards N`` deployment;
* :mod:`repro.service.cli` — the ``merced serve`` / ``merced submit``
  subcommand entry points.

Payloads returned over the wire are bit-identical to inline
:class:`~repro.core.merced.Merced` runs: the service executes the same
:func:`~repro.exec.task.run_point` kinds through the same farm and
cache, and its responses are JSON-stable (sorted keys) so equality is
byte equality.
"""

from .client import ServiceClient

#: The asyncio side (server, router, fleet), imported on first access so
#: a process that only submits work never loads it.
_LAZY = {
    "CompileService": "server",
    "ServiceConfig": "server",
    "ServiceMetrics": "server",
    "ServiceThread": "server",
    "CompileFleet": "fleet",
    "FleetThread": "fleet",
    "FleetRouter": "router",
    "HashRing": "router",
    "RouterConfig": "router",
}

__all__ = [
    "ServiceClient",
    "CompileService",
    "CompileFleet",
    "FleetRouter",
    "FleetThread",
    "HashRing",
    "RouterConfig",
    "ServiceConfig",
    "ServiceMetrics",
    "ServiceThread",
]


def __getattr__(name):
    if name in _LAZY:
        from importlib import import_module

        return getattr(import_module(f"{__name__}.{_LAZY[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
