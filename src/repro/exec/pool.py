"""`SweepFarm` — the multiprocess sweep executor.

Sharding model: every :class:`~repro.exec.task.SweepPoint` is an
independent unit (its RNG seed travels inside its config), so the farm
simply submits points to a :class:`concurrent.futures.ProcessPoolExecutor`
and re-orders outcomes by submission index.  That re-ordering — plus
per-point seeds — is the whole determinism story: results are
bit-identical at any ``jobs`` count, and ``jobs=1`` short-circuits to
inline execution (same code path as the workers, no processes spawned).

Failure containment, per point:

* **in-task exception** (e.g. :class:`~repro.errors.InfeasiblePartitionError`)
  — caught in the worker, returned as a failed outcome;
* **timeout** — the worker wraps the point in
  :func:`repro.exec.watchdog.deadline` (``SIGALRM`` on the main thread,
  an async-exception watchdog on worker threads) and converts the
  expiry into :class:`~repro.errors.SweepTimeoutError`, so the pool
  itself stays healthy (no worker is ever killed for being slow);
* **worker death** (segfault, ``os._exit``, OOM-kill) — surfaces as a
  broken pool; the farm shuts the dead executor down, builds a fresh
  one, and resubmits the affected points.

Each of these consumes one of the point's ``retries + 1`` attempts;
a point that keeps failing becomes a *degraded* :class:`TaskResult`
(``ok=False``) instead of sinking the sweep.  Note the one blunt edge
of pool-level recovery: a dying worker invalidates every in-flight
future, so concurrently scheduled innocent points may also burn an
attempt — give sweeps a retry budget (the default ``retries=1``
suffices) rather than ``retries=0`` when that matters.

Results from the on-disk cache (see :mod:`repro.exec.cache`) are
returned with ``cache_hit=True`` and ``attempts=0`` without touching
the pool at all.
"""

from __future__ import annotations

import multiprocessing
import threading
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from typing import Dict, List, Optional, Sequence

from ..perf import current_trace
from .cache import ResultCache
from .hashing import code_version, point_key
from .task import SweepPoint, TaskResult, run_point
from .watchdog import deadline

__all__ = ["SweepFarm"]


def _execute_attempt(
    point: SweepPoint, timeout: Optional[float], traced: bool
) -> Dict[str, object]:
    """Run one attempt of ``point``; never raises (outcome dict instead).

    This exact function body runs both inline (``jobs=1``) and in pool
    workers, which is what makes the two modes bit-identical.
    """
    from ..perf import clear_failed_stage, failed_stage

    clear_failed_stage()
    t0 = time.perf_counter()
    message = (
        ""
        if timeout is None
        else f"sweep task exceeded {timeout:g}s "
        f"({point.kind} on {point.circuit})"
    )
    try:
        perf = None
        with deadline(timeout, message):
            if traced:
                from ..perf import profiled

                with profiled(f"{point.kind}:{point.circuit}") as trace:
                    value = run_point(point)
                perf = trace.to_dict()
            else:
                value = run_point(point)
        return {
            "ok": True,
            "value": value,
            "perf": perf,
            "seconds": time.perf_counter() - t0,
        }
    except Exception as exc:  # degraded row, never a crashed sweep
        return {
            "ok": False,
            "error": str(exc),
            "error_type": type(exc).__name__,
            "stage": failed_stage(),
            "diagnostics": getattr(exc, "lint_diagnostics", None),
            "seconds": time.perf_counter() - t0,
        }


class SweepFarm:
    """Execute sweep points in parallel with caching, retries, timeouts.

    Example (inline, no cache):
        >>> from repro.exec import SweepFarm, SweepPoint
        >>> farm = SweepFarm()
        >>> pts = [SweepPoint("_echo", "demo", params=(("x", i),)) for i in range(3)]
        >>> [r.value["x"] for r in farm.map(pts)]
        [0, 1, 2]

    Attributes:
        jobs: worker process count; ``1`` runs inline (no processes).
        timeout: per-task wall-clock budget in seconds (``None`` = no
            limit).  Enforced inside the worker via
            :func:`repro.exec.watchdog.deadline` — ``SIGALRM`` on the
            main thread, an async-exception watchdog on any other
            thread — so it interrupts Python bytecode (which is all
            this package runs) no matter where the attempt executes.
        retries: extra attempts after a first failure; every point gets
            ``retries + 1`` attempts before its row degrades.
        cache: optional :class:`~repro.exec.cache.ResultCache`; hits
            skip execution entirely, successes are stored back.
    """

    def __init__(
        self,
        jobs: int = 1,
        timeout: Optional[float] = None,
        retries: int = 1,
        cache: Optional[ResultCache] = None,
    ):
        self.jobs = jobs
        self.timeout = timeout
        self.retries = retries
        self.cache = cache

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def map(self, points: Sequence[SweepPoint]) -> List[TaskResult]:
        """Run every point; one :class:`TaskResult` per point, in order.

        Never raises for per-point failures — inspect ``result.ok``.
        Perf traces collected in workers are merged into the parent's
        active :class:`~repro.perf.PerfTrace` (if any), so
        ``merced --profile`` aggregates across processes.
        """
        points = list(points)
        trace = current_trace()
        traced = trace is not None
        results: List[Optional[TaskResult]] = [None] * len(points)

        pending: List[int] = []
        keys: List[Optional[str]] = [None] * len(points)
        if self.cache is not None:
            code = code_version()
            for i, point in enumerate(points):
                keys[i] = point_key(point, code=code)
                payload = self.cache.get(keys[i])
                if payload is not None:
                    results[i] = TaskResult(
                        point=point,
                        value=payload,
                        attempts=0,
                        cache_hit=True,
                    )
                else:
                    pending.append(i)
        else:
            pending = list(range(len(points)))

        if pending:
            if self.jobs <= 1:
                self._run_inline(points, pending, results, traced)
            else:
                self._run_pool(points, pending, results, traced)

        for i, result in enumerate(results):
            assert result is not None  # every index is filled above
            if (
                self.cache is not None
                and result.ok
                and not result.cache_hit
            ):
                self.cache.put(
                    keys[i],
                    result.value,
                    kind=result.point.kind,
                    circuit=result.point.circuit,
                )

        if traced:
            self._merge_perf(trace, results)
        return results  # type: ignore[return-value]

    # ------------------------------------------------------------------
    # inline (jobs=1) and pooled execution share attempt bookkeeping
    # ------------------------------------------------------------------
    def _run_inline(self, points, pending, results, traced) -> None:
        allowed = self.retries + 1
        for i in pending:
            attempts = 0
            while True:
                attempts += 1
                outcome = _execute_attempt(
                    points[i], self.timeout, traced
                )
                if outcome["ok"] or attempts >= allowed:
                    results[i] = self._to_result(points[i], outcome, attempts)
                    break

    def _run_pool(self, points, pending, results, traced) -> None:
        allowed = self.retries + 1
        attempts = {i: 0 for i in pending}
        queue = list(pending)
        executor = self._new_executor()
        try:
            inflight = {}
            while queue or inflight:
                while queue:
                    i = queue.pop(0)
                    future = executor.submit(
                        _execute_attempt,
                        points[i],
                        self.timeout,
                        traced,
                    )
                    inflight[future] = i
                done, _ = wait(inflight, return_when=FIRST_COMPLETED)
                pool_broken = False
                for future in done:
                    i = inflight.pop(future)
                    attempts[i] += 1
                    try:
                        outcome = future.result()
                    except BrokenProcessPool:
                        pool_broken = True
                        outcome = {
                            "ok": False,
                            "error": "worker process died "
                            "(killed, crashed, or exited)",
                            "error_type": "BrokenWorker",
                            "seconds": 0.0,
                        }
                    if outcome["ok"] or attempts[i] >= allowed:
                        results[i] = self._to_result(
                            points[i], outcome, attempts[i]
                        )
                    else:
                        queue.append(i)
                if pool_broken:
                    # remaining in-flight futures are doomed too: drain
                    # them through the same bookkeeping, then rebuild.
                    for future, i in list(inflight.items()):
                        attempts[i] += 1
                        try:
                            outcome = future.result()
                        except BrokenProcessPool:
                            outcome = {
                                "ok": False,
                                "error": "worker pool collapsed while "
                                "this task was scheduled",
                                "error_type": "BrokenWorker",
                                "seconds": 0.0,
                            }
                        if outcome["ok"] or attempts[i] >= allowed:
                            results[i] = self._to_result(
                                points[i], outcome, attempts[i]
                            )
                        else:
                            queue.append(i)
                    inflight.clear()
                    executor.shutdown(wait=True)
                    executor = self._new_executor()
        finally:
            executor.shutdown(wait=True)

    def _new_executor(self) -> ProcessPoolExecutor:
        # Forking with live threads (service executors, the watchdog
        # timer) copies held locks into the child, which can deadlock
        # it instantly.  Keep the cheap default fork start for the
        # single-threaded CLI path, but switch to spawn whenever any
        # other thread is already running.
        mp_context = (
            multiprocessing.get_context("spawn")
            if threading.active_count() > 1
            else None
        )
        return ProcessPoolExecutor(
            max_workers=self.jobs, mp_context=mp_context
        )

    @staticmethod
    def _to_result(point, outcome, attempts) -> TaskResult:
        if outcome["ok"]:
            return TaskResult(
                point=point,
                value=outcome["value"],
                attempts=attempts,
                seconds=outcome["seconds"],
                perf=outcome.get("perf"),
            )
        diagnostics = outcome.get("diagnostics")
        return TaskResult(
            point=point,
            error=outcome["error"],
            error_type=outcome["error_type"],
            attempts=attempts,
            seconds=outcome["seconds"],
            stage=outcome.get("stage"),
            diagnostics=tuple(diagnostics) if diagnostics else None,
        )

    @staticmethod
    def _merge_perf(trace, results) -> None:
        for result in results:
            if result.perf:
                trace.merge(result.perf)
            trace.count("farm_tasks")
            if result.cache_hit:
                trace.count("farm_cache_hits")
            if not result.ok:
                trace.count("farm_failures")
