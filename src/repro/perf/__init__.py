"""Performance instrumentation: stage timers, counters, JSON traces."""

from .trace import (
    LatencyHistogram,
    PerfTrace,
    activate,
    clear_failed_stage,
    count,
    current_trace,
    deactivate,
    failed_stage,
    profiled,
    stage,
)

__all__ = [
    "LatencyHistogram",
    "PerfTrace",
    "activate",
    "clear_failed_stage",
    "count",
    "current_trace",
    "deactivate",
    "failed_stage",
    "profiled",
    "stage",
]
