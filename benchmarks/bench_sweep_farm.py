"""Regression bench: the sweep farm's caching and sharding contracts.

Not a paper table — this bench guards the execution layer the parameter
studies run on.  Workload: the golden (circuit × l_k) grid compiled
three ways — inline (``jobs=1``), through 4 worker processes
(``jobs=4``), and out of a warm on-disk cache — asserting:

* all three produce **bit-identical** payload rows (the determinism
  contract of :mod:`repro.exec.pool`);
* a warm-cache rerun costs **< 10%** of the cold run;
* with ≥ 4 usable CPUs, ``jobs=4`` is **≥ 2.5×** faster than inline.
  On smaller hosts (CI runners are often 1–2 cores) the speedup is
  reported but not asserted — process parallelism cannot beat physics.

The timing table is printed only.
"""

from __future__ import annotations

import os
import time

from conftest import BENCH_SEED
from repro import MercedConfig
from repro.circuits import load_circuit
from repro.core import format_table
from repro.exec import ResultCache, SweepFarm, SweepPoint
from repro.netlist.bench import write_bench

CIRCUITS = ["s27", "s420.1", "s510", "s641"]
LKS = [16, 24]
CONFIG = MercedConfig(seed=BENCH_SEED, min_visit=5)

MIN_PARALLEL_SPEEDUP = 2.5
MAX_WARM_FRACTION = 0.10


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def grid_points():
    points = []
    for name in CIRCUITS:
        bench = write_bench(load_circuit(name))
        for lk in LKS:
            points.append(
                SweepPoint("merced", name, bench=bench, config=CONFIG.with_lk(lk))
            )
    return points


def run_grid(farm):
    t0 = time.perf_counter()
    results = farm.map(grid_points())
    seconds = time.perf_counter() - t0
    assert all(r.ok for r in results), [r.error for r in results if not r.ok]
    return [r.value for r in results], seconds


def test_sweep_farm_scaling(tmp_path):
    cpus = _usable_cpus()
    serial_rows, serial_s = run_grid(SweepFarm(jobs=1))
    pooled_rows, pooled_s = run_grid(SweepFarm(jobs=4))

    cache_dir = tmp_path / "sweep-cache"
    cold_farm = SweepFarm(jobs=1, cache=ResultCache(cache_dir))
    cold_rows, cold_s = run_grid(cold_farm)
    warm_farm = SweepFarm(jobs=4, cache=ResultCache(cache_dir))
    warm_rows, warm_s = run_grid(warm_farm)

    # determinism: every mode returns the same bytes-for-bytes payloads
    assert pooled_rows == serial_rows
    assert cold_rows == serial_rows
    assert warm_rows == serial_rows
    assert warm_farm.cache.stats.hits == len(serial_rows)
    assert warm_farm.cache.stats.misses == 0

    # warm cache must be nearly free
    warm_fraction = warm_s / cold_s
    assert warm_fraction < MAX_WARM_FRACTION, (
        f"warm-cache rerun took {warm_fraction:.0%} of the cold run "
        f"(required: < {MAX_WARM_FRACTION:.0%})"
    )

    speedup = serial_s / pooled_s
    speedup_note = f"{speedup:.2f}x"
    if cpus >= 4:
        assert speedup >= MIN_PARALLEL_SPEEDUP, (
            f"jobs=4 only {speedup:.2f}x faster than jobs=1 on {cpus} CPUs "
            f"(required: {MIN_PARALLEL_SPEEDUP:.1f}x)"
        )
    else:
        speedup_note += f" (not asserted: only {cpus} usable CPU(s))"

    table = format_table(
        ["mode", "points", "seconds", "vs serial", "cache hits"],
        [
            ["jobs=1", len(serial_rows), f"{serial_s:.3f}", "1.00x", "-"],
            ["jobs=4", len(pooled_rows), f"{pooled_s:.3f}", f"{speedup:.2f}x", "-"],
            [
                "jobs=1 cold cache",
                len(cold_rows),
                f"{cold_s:.3f}",
                f"{serial_s / cold_s:.2f}x",
                "0",
            ],
            [
                "jobs=4 warm cache",
                len(warm_rows),
                f"{warm_s:.3f}",
                f"{serial_s / warm_s:.2f}x",
                f"{warm_farm.cache.stats.hits}",
            ],
        ],
    )
    print()
    print(
        f"Sweep farm scaling on the golden grid "
        f"({len(CIRCUITS)} circuits x l_k {LKS}, {cpus} usable CPU(s)):\n"
        + table
        + f"\nparallel speedup: {speedup_note}; "
        f"warm cache: {warm_fraction:.1%} of cold"
    )
