"""``merced serve`` and ``merced submit`` — the service's CLI surface.

``serve`` runs a :class:`~repro.service.server.CompileService` in the
foreground until SIGTERM/SIGINT, then drains gracefully (finish
in-flight, reject new, flush cache temp files).  ``submit`` is the
matching client: it posts circuits to a running service and prints one
JSON row per point, honoring ``Retry-After`` backpressure with bounded
jittered retries (``--no-retry`` to fail fast).

Examples::

    merced serve --port 8356 --cache ~/.merced-cache --workers 4
    merced submit s27 s510 --lk 16 24 --url http://127.0.0.1:8356
    merced submit --bench mydesign.bench --lk 24 --json results.json
    merced submit --metrics-only
"""

from __future__ import annotations

import argparse
import asyncio
import json
import signal
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from ..errors import ReproError, ServiceError
from .client import ServiceClient
from .server import CompileService, ServiceConfig

__all__ = [
    "build_serve_parser",
    "serve_main",
    "build_submit_parser",
    "submit_main",
]


def build_serve_parser() -> argparse.ArgumentParser:
    """Construct the ``merced serve`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="merced serve",
        description=(
            "Long-running compile service: accepts compile/sweep "
            "submissions over HTTP/JSON, routes them through the sweep "
            "farm with request coalescing, bounded admission, enforced "
            "per-request deadlines, and an on-disk result cache.  "
            "SIGTERM drains gracefully."
        ),
    )
    parser.add_argument("--host", default="127.0.0.1", help="listen address")
    parser.add_argument(
        "--port",
        type=int,
        default=8356,
        help="listen port (0 picks a free port and prints it)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=2,
        metavar="N",
        help="execution threads = max concurrently running requests",
    )
    parser.add_argument(
        "--queue-capacity",
        type=int,
        default=16,
        metavar="N",
        help="admitted-but-unfinished bound; beyond it submissions get 429",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=300.0,
        metavar="SEC",
        help="default + ceiling per-request deadline (enforced off the "
        "main thread by the watchdog)",
    )
    parser.add_argument(
        "--cache",
        metavar="DIR",
        help="on-disk result cache directory (created if missing)",
    )
    parser.add_argument(
        "--drain-grace",
        type=float,
        default=30.0,
        metavar="SEC",
        help="how long a drain waits for in-flight work",
    )
    parser.add_argument(
        "--hot-entries",
        type=int,
        default=512,
        metavar="N",
        help="in-memory hot-tier entries; size it to hold the repeat "
        "working set (0 disables)",
    )
    parser.add_argument(
        "--hot-bytes",
        type=int,
        default=64 << 20,
        metavar="B",
        help="in-memory hot-tier payload-byte bound",
    )
    parser.add_argument(
        "--lint-capacity",
        type=int,
        default=8,
        metavar="N",
        help="pending mode=lint_only answers, served from a side thread "
        "(0 answers them with 429)",
    )
    return parser


async def _serve(config: ServiceConfig) -> None:
    """Run the service until SIGTERM/SIGINT, then drain."""
    service = CompileService(config)
    await service.start()
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(signum, stop.set)
        except (NotImplementedError, RuntimeError):  # non-POSIX loops
            pass
    print(
        f"merced serve: listening on http://{config.host}:{service.port} "
        f"(workers={config.workers}, queue={config.queue_capacity}, "
        f"cache={config.cache_dir or 'off'})",
        flush=True,
    )
    await stop.wait()
    print("merced serve: draining (finish in-flight, reject new)", flush=True)
    await service.drain()
    counters = service.metrics.as_dict()["counters"]
    print(
        f"merced serve: drained; {counters['admitted']} executed, "
        f"{counters['coalesced']} coalesced, "
        f"{counters['rejected_backpressure']} rejected",
        flush=True,
    )


def serve_main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point of ``merced serve``; returns the exit code."""
    args = build_serve_parser().parse_args(argv)
    config = ServiceConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        queue_capacity=args.queue_capacity,
        timeout=args.timeout,
        cache_dir=args.cache,
        drain_grace=args.drain_grace,
        hot_entries=args.hot_entries,
        hot_bytes=args.hot_bytes,
        lint_capacity=args.lint_capacity,
    )
    try:
        asyncio.run(_serve(config))
    except KeyboardInterrupt:
        pass
    except (OSError, RuntimeError) as exc:  # e.g. the port is in use
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def build_submit_parser() -> argparse.ArgumentParser:
    """Construct the ``merced submit`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="merced submit",
        description=(
            "Submit compile points to a running 'merced serve' instance "
            "and print one JSON row per point (identical payloads to the "
            "inline pipeline)."
        ),
    )
    parser.add_argument("circuits", nargs="*", help="benchmark names")
    parser.add_argument(
        "--bench",
        action="append",
        default=[],
        metavar="FILE",
        help="also submit an ISCAS89 .bench file (repeatable)",
    )
    parser.add_argument(
        "--lk",
        type=int,
        nargs="+",
        default=[16],
        metavar="L",
        help="l_k grid (default: 16)",
    )
    parser.add_argument("--seed", type=int, default=1996, help="flow RNG seed")
    parser.add_argument(
        "--beta", type=int, default=50, help="SCC cut budget factor (Eq. 6)"
    )
    parser.add_argument(
        "--max-sources", type=int, default=None, help="Dijkstra source cap"
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SEC",
        help="per-point deadline request (service may cap it lower)",
    )
    parser.add_argument(
        "--url",
        default="http://127.0.0.1:8356",
        help="service endpoint (default: %(default)s)",
    )
    parser.add_argument(
        "--json",
        metavar="FILE",
        help="also write the raw result rows as a JSON array to FILE",
    )
    parser.add_argument(
        "--metrics-only",
        action="store_true",
        help="just fetch and print /metrics from the service, then exit",
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=4,
        metavar="N",
        help="busy (429) retries, honoring the service's Retry-After "
        "hint with jittered exponential backoff (default: %(default)s)",
    )
    parser.add_argument(
        "--no-retry",
        action="store_true",
        help="fail fast on 429 backpressure instead of retrying",
    )
    parser.add_argument(
        "--optimize",
        choices=["fast", "anneal"],
        default=None,
        help="ask the service to refine each point's partition with the "
        "local-search tier (same semantics as 'merced --optimize')",
    )
    parser.add_argument(
        "--optimize-budget",
        type=float,
        default=5.0,
        metavar="SEC",
        help="advisory refinement budget per point (deterministic "
        "schedule; default: 5.0)",
    )
    return parser


def submit_main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point of ``merced submit``; returns the exit code.

    Exit status: 0 when every submitted point succeeded, 1 when any
    degraded or was rejected, 2 for usage/transport errors.
    """
    args = build_submit_parser().parse_args(argv)
    if args.retries < 0:
        print("error: --retries must be >= 0", file=sys.stderr)
        return 2
    try:
        client = ServiceClient.from_url(args.url)
        client.retries = args.retries
        client.retry_on_busy = not args.no_retry
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    try:
        if args.metrics_only:
            print(json.dumps(client.metrics(), indent=2, sort_keys=True))
            return 0

        if not args.circuits and not args.bench:
            print(
                "error: give benchmark names and/or --bench FILE",
                file=sys.stderr,
            )
            return 2

        submissions: List[dict] = []
        base = {"seed": args.seed, "beta": args.beta}
        if args.max_sources is not None:
            base["max_sources"] = args.max_sources
        if args.optimize is not None:
            base["optimize"] = args.optimize
            base["optimize_budget"] = args.optimize_budget
        if args.timeout is not None:
            base["timeout"] = args.timeout
        for lk in args.lk:
            for name in args.circuits:
                submissions.append(dict(base, circuit=name, lk=lk))
            for path in args.bench:
                text = Path(path).read_text()
                submissions.append(
                    dict(base, circuit=Path(path).stem, bench=text, lk=lk)
                )

        rows = client.sweep(submissions)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ReproError, ServiceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    for row in rows:
        print(json.dumps(row, sort_keys=True))
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(rows, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"results written to {args.json}", file=sys.stderr)
    degraded = sum(
        1 for row in rows if not row.get("ok") or row.get("status") != 200
    )
    return 1 if degraded else 0
