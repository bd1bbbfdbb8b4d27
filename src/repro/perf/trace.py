"""Per-stage wall-clock timers and hot-path counters for the Merced pipeline.

The compiler's cost model (Tables 10/11 report CPU seconds) and the
ROADMAP's performance goals both need *observability*: where does a run
spend its time, how many Dijkstra trees did ``Saturate_Network`` grow, how
many edge relaxations did they perform, how many nets were cut, how many
merge candidates did ``Assign_CBIT`` score.  This module provides a small,
dependency-free tracing facility:

* :class:`PerfTrace` — an accumulator of named stages (wall-clock seconds,
  call counts and the process's peak RSS at exit) and named counters,
  serializable to JSON;
* a module-level *active trace*: instrumented code calls :func:`stage` /
  :func:`count`, which are near-zero-cost no-ops until a trace is
  activated (one ``is None`` check);
* :func:`profiled` — a context manager that activates a fresh trace for
  the duration of a block and hands it back.

Instrumentation convention: hot loops accumulate plain local integers and
report them with **one** :func:`count` call per run, so tracing never
perturbs the inner loops it measures.

Example:
    >>> from repro.perf import profiled
    >>> with profiled("demo") as trace:
    ...     from repro.perf import stage, count
    ...     with stage("work"):
    ...         count("widgets", 3)
    >>> trace.counters["widgets"]
    3
    >>> "work" in trace.to_dict()["stages"]
    True
"""

from __future__ import annotations

import json
import math
import sys
import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional

try:
    import resource
except ImportError:  # pragma: no cover - e.g. Windows
    resource = None  # type: ignore[assignment]

__all__ = [
    "PerfTrace",
    "LatencyHistogram",
    "activate",
    "deactivate",
    "current_trace",
    "profiled",
    "stage",
    "count",
    "failed_stage",
    "clear_failed_stage",
]


def _peak_rss_mb() -> Optional[float]:
    """The process's peak resident set size so far, in MB.

    ``ru_maxrss`` is a high-water mark in kilobytes on Linux and in bytes
    on macOS.  ``None`` where the :mod:`resource` module is missing.
    """
    if resource is None:  # pragma: no cover - e.g. Windows
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / (1024.0 * 1024.0 if sys.platform == "darwin" else 1024.0)


class PerfTrace:
    """Accumulator of per-stage wall-clock timings and named counters.

    Attributes:
        label: free-form run label (circuit name, bench id, ...).
        stages: stage name → ``{"seconds": float, "calls": int,
            "peak_rss_mb": float}``; ``peak_rss_mb`` is the process's
            peak RSS when the stage last exited (omitted where
            :mod:`resource` is missing), so a stage reading above the
            stages that ran before it raised the peak.
        counters: counter name → accumulated integer value.
        meta: free-form scalar metadata merged into the JSON trace.
    """

    def __init__(self, label: str = ""):
        self.label = label
        self.stages: Dict[str, Dict[str, float]] = {}
        self.counters: Dict[str, int] = {}
        self.meta: Dict[str, object] = {}
        self._t0 = time.perf_counter()

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    @contextmanager
    def stage(self, name: str) -> Iterator[None]:
        """Time one pipeline stage; nested/repeated entries accumulate."""
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            slot = self.stages.setdefault(name, {"seconds": 0.0, "calls": 0})
            slot["seconds"] += elapsed
            slot["calls"] += 1
            peak = _peak_rss_mb()
            if peak is not None:
                slot["peak_rss_mb"] = peak

    def count(self, name: str, n: int = 1) -> None:
        """Add ``n`` to counter ``name`` (created at 0 on first use)."""
        self.counters[name] = self.counters.get(name, 0) + n

    def set_meta(self, **kwargs) -> None:
        """Attach scalar metadata (circuit name, l_k, seed, ...)."""
        self.meta.update(kwargs)

    def merge(self, data: Dict[str, object]) -> None:
        """Fold another trace's :meth:`to_dict` into this one.

        Stage seconds/call counts and counters accumulate, and a stage's
        ``peak_rss_mb`` keeps the larger value; the other trace's label
        and metadata are ignored.  This is how the sweep farm aggregates
        per-worker traces into the parent process's trace, so
        ``merced sweep --profile`` reports totals across processes and
        the largest worker's peak.

        Example:
            >>> a, b = PerfTrace("a"), PerfTrace("b")
            >>> with b.stage("work"):
            ...     b.count("widgets", 2)
            >>> a.merge(b.to_dict())
            >>> a.counters["widgets"], int(a.stages["work"]["calls"])
            (2, 1)
        """
        for name, slot in data.get("stages", {}).items():
            mine = self.stages.setdefault(name, {"seconds": 0.0, "calls": 0})
            mine["seconds"] += float(slot.get("seconds", 0.0))
            mine["calls"] += int(slot.get("calls", 0))
            if "peak_rss_mb" in slot:
                mine["peak_rss_mb"] = max(
                    mine.get("peak_rss_mb", 0.0), float(slot["peak_rss_mb"])
                )
        for name, value in data.get("counters", {}).items():
            self.counters[name] = self.counters.get(name, 0) + int(value)

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    @property
    def total_seconds(self) -> float:
        """Wall-clock seconds since the trace was created."""
        return time.perf_counter() - self._t0

    def to_dict(self) -> Dict[str, object]:
        """Plain-dict view of the trace (stable key order for JSON)."""
        return {
            "label": self.label,
            "total_seconds": self.total_seconds,
            "stages": {
                name: {**slot, "calls": int(slot["calls"])}
                for name, slot in self.stages.items()
            },
            "counters": dict(self.counters),
            "meta": dict(self.meta),
        }

    def to_json(self) -> str:
        """JSON rendering of :meth:`to_dict`."""
        return json.dumps(self.to_dict(), indent=2)

    def write(self, path) -> None:
        """Write the JSON trace to ``path``."""
        with open(path, "w") as fh:
            fh.write(self.to_json())
            fh.write("\n")

    def render(self) -> str:
        """Human-readable one-stage-per-line summary."""
        lines = [f"perf trace {self.label or '(unlabelled)'}:"]
        for name, slot in sorted(
            self.stages.items(), key=lambda kv: -kv[1]["seconds"]
        ):
            lines.append(
                f"  {name:<16} {slot['seconds'] * 1e3:>10.2f} ms"
                f"  ({int(slot['calls'])} call(s))"
            )
        for name, value in sorted(self.counters.items()):
            lines.append(f"  {name:<24} {value}")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<PerfTrace {self.label!r}: {len(self.stages)} stages, "
            f"{len(self.counters)} counters>"
        )


#: Geometry of :class:`LatencyHistogram`'s buckets: the first bucket's
#: upper bound, the factor each next bound grows by, and the count.
HISTOGRAM_FLOOR_S = 2e-5
HISTOGRAM_GROWTH = 1.6
HISTOGRAM_BUCKETS = 48


class LatencyHistogram:
    """Geometric-bucket latency histogram with p50/p99 estimation.

    Buckets grow by a fixed factor (``HISTOGRAM_GROWTH``) from a
    ``HISTOGRAM_FLOOR_S`` lower bound — 48 buckets span ~20 µs to
    ~80 s, plenty for a compile service whose responses range from
    in-memory hot-cache splices to multi-second cold compiles.
    Percentiles interpolate linearly inside the winning bucket, so they
    are estimates with bounded relative error (one growth step), not
    exact order statistics — the right trade for an always-on service
    counter.
    Callers provide thread-safety (the service metrics lock); the class
    itself is plain counters.

    Example:
        >>> h = LatencyHistogram()
        >>> for ms in (1, 1, 2, 100):
        ...     h.observe(ms / 1000.0)
        >>> h.count
        4
        >>> 0.0005 < h.percentile(50) < 0.004
        True
        >>> 0.03 < h.percentile(99) < 0.3
        True
    """

    def __init__(self) -> None:
        self.buckets: List[int] = [0] * HISTOGRAM_BUCKETS
        self.count = 0
        self.sum_seconds = 0.0
        self.max_seconds = 0.0

    def _bucket_of(self, seconds: float) -> int:
        if seconds <= HISTOGRAM_FLOOR_S:
            return 0
        ratio = seconds / HISTOGRAM_FLOOR_S
        index = int(math.log(ratio, HISTOGRAM_GROWTH)) + 1
        return min(index, HISTOGRAM_BUCKETS - 1)

    def _upper_bound(self, index: int) -> float:
        return HISTOGRAM_FLOOR_S * (HISTOGRAM_GROWTH ** index)

    def observe(self, seconds: float) -> None:
        """Record one latency sample."""
        self.buckets[self._bucket_of(seconds)] += 1
        self.count += 1
        self.sum_seconds += seconds
        if seconds > self.max_seconds:
            self.max_seconds = seconds

    def percentile(self, p: float) -> float:
        """Estimated ``p``-th percentile in seconds (0 with no samples)."""
        if not self.count:
            return 0.0
        rank = p / 100.0 * self.count
        seen = 0
        for index, n in enumerate(self.buckets):
            if not n:
                continue
            if seen + n >= rank:
                lower = self._upper_bound(index - 1) if index else 0.0
                upper = min(self._upper_bound(index), self.max_seconds)
                if upper < lower:
                    upper = lower
                fraction = (rank - seen) / n
                return lower + (upper - lower) * fraction
            seen += n
        return self.max_seconds

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready snapshot: sample count, sums and percentiles."""
        return {
            "count": self.count,
            "sum_seconds": self.sum_seconds,
            "max_seconds": self.max_seconds,
            "mean_seconds": (
                self.sum_seconds / self.count if self.count else 0.0
            ),
            "p50_seconds": self.percentile(50),
            "p99_seconds": self.percentile(99),
        }


#: The currently active trace (None → instrumentation is a no-op).
_ACTIVE: Optional[PerfTrace] = None


def activate(trace: PerfTrace) -> PerfTrace:
    """Make ``trace`` the active collector for :func:`stage`/:func:`count`."""
    global _ACTIVE
    _ACTIVE = trace
    return trace


def deactivate() -> Optional[PerfTrace]:
    """Stop collecting; returns the trace that was active (if any)."""
    global _ACTIVE
    trace, _ACTIVE = _ACTIVE, None
    return trace


def current_trace() -> Optional[PerfTrace]:
    """The active :class:`PerfTrace`, or ``None`` when tracing is off."""
    return _ACTIVE


@contextmanager
def profiled(label: str = "") -> Iterator[PerfTrace]:
    """Activate a fresh trace for the duration of the block.

    Example:
        >>> with profiled("unit") as t:
        ...     count("things")
        >>> t.counters
        {'things': 1}
    """
    global _ACTIVE
    trace = PerfTrace(label)
    prev = _ACTIVE
    activate(trace)
    try:
        yield trace
    finally:
        _ACTIVE = prev


#: Per-thread failure latch (maintained even with no trace active, so
#: failure attribution works on untraced runs).  Thread-local because
#: the compile service runs sweep attempts on concurrent executor
#: threads — a shared latch would let one request's unwind steal
#: another's failure attribution.
_STAGE_STATE = threading.local()


@contextmanager
def stage(name: str) -> Iterator[None]:
    """Time a stage on the active trace; no-op when tracing is off.

    Independently of tracing, an exception escaping the block latches
    the *innermost* failing stage (readable via :func:`failed_stage`):
    the innermost frame unwinds first.  The sweep farm uses this to
    attribute worker failures to a pipeline stage.
    """
    try:
        trace = _ACTIVE
        if trace is None:
            yield
        else:
            with trace.stage(name):
                yield
    except BaseException:
        if getattr(_STAGE_STATE, "failed", None) is None:
            _STAGE_STATE.failed = name
        raise


def failed_stage() -> Optional[str]:
    """Innermost stage open when the last exception unwound, if any.

    Latched on the first unwinding :func:`stage` frame and sticky until
    :func:`clear_failed_stage` — callers clear before the attempt and
    read after catching, so nested stages report the deepest frame.
    The latch is per-thread.
    """
    return getattr(_STAGE_STATE, "failed", None)


def clear_failed_stage() -> None:
    """Reset the latched :func:`failed_stage` value (start of an attempt)."""
    _STAGE_STATE.failed = None


def count(name: str, n: int = 1) -> None:
    """Bump a counter on the active trace; no-op when tracing is off."""
    trace = _ACTIVE
    if trace is not None:
        trace.counters[name] = trace.counters.get(name, 0) + n
