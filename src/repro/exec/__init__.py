"""Parallel sweep execution farm with on-disk result caching.

The paper's evaluation is a grid — benchmarks × ``l_k`` × β × flow
seeds (Tables 10–12, Figure 8) — and each grid point is an independent
Merced compilation.  This package turns that observation into
infrastructure:

* :mod:`repro.exec.task` — the picklable unit of work
  (:class:`SweepPoint`) and its outcome (:class:`TaskResult`);
* :mod:`repro.exec.hashing` — content hashes over (netlist bytes,
  configuration, code version) that key the cache;
* :mod:`repro.exec.cache` — an atomic, JSON-per-result on-disk cache;
* :mod:`repro.exec.pool` — :class:`SweepFarm`, the multiprocess
  executor with per-task timeouts, bounded retries, dead-worker
  recovery, and deterministic result ordering;
* :mod:`repro.exec.watchdog` — :func:`deadline`, the per-attempt
  wall-clock enforcer (``SIGALRM`` on the main thread, an
  async-exception watchdog on worker threads) shared by the farm and
  the ``merced serve`` compile service.

Results are bit-identical at any worker count (including ``jobs=1``,
which runs inline without spawning processes) because every point
carries its own explicit RNG seed and the farm orders results by
submission index, never by completion order.
"""

from .cache import CacheStats, ResultCache
from .hashing import code_version, config_fingerprint, point_key, short_key
from .pool import SweepFarm
from .task import SweepPoint, TaskResult, known_kinds, run_point
from .watchdog import deadline, reset_watchdog_stats, watchdog_stats

__all__ = [
    "CacheStats",
    "ResultCache",
    "code_version",
    "config_fingerprint",
    "point_key",
    "short_key",
    "SweepFarm",
    "SweepPoint",
    "TaskResult",
    "known_kinds",
    "run_point",
    "deadline",
    "reset_watchdog_stats",
    "watchdog_stats",
]
