"""Shared infrastructure for the paper-reproduction benchmarks.

Every paper ``bench_*`` module regenerates one table or figure of the
paper.  Reproduced tables are printed and written to
``benchmarks/output/`` so EXPERIMENTS.md can cite them.  The regression
guards (``bench_perf_trace``, ``bench_sweep_farm``,
``bench_partition_kernels``) assert their bounds and only print their
timings: seconds belong to the host that measured them, so they are not
committed.

Circuit sets: the default run covers the small/medium ISCAS89 profiles
(seconds each).  Set ``REPRO_FULL_TABLES=1`` to include the four-digit
circuits up to s38584.1 (minutes each; the 1996 run took minutes on a
Sparc10 too).  ``Saturate_Network`` source injections are capped per
DESIGN.md §4 — the paper's full ``min_visit × |V|`` schedule is
prohibitive in pure Python at the s35932 scale.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Dict, Tuple

import pytest

from repro import Merced, MercedConfig
from repro.circuits import load_circuit
from repro.core.result import MercedReport

#: Circuits always benchmarked (Table 9 order).
SMALL_CIRCUITS = [
    "s510",
    "s420.1",
    "s641",
    "s713",
    "s820",
    "s832",
    "s838.1",
    "s1423",
]
MEDIUM_CIRCUITS = ["s5378"]
LARGE_CIRCUITS = [
    "s9234.1",
    "s9234",
    "s13207.1",
    "s13207",
    "s15850.1",
    "s35932",
    "s38417",
    "s38584.1",
]

#: Tables 11/12 restrict l_k=24 to the circuits the paper lists there.
LK24_CIRCUITS = ["s641", "s713", "s5378"]
LK24_LARGE = ["s9234.1", "s13207.1", "s13207", "s15850.1", "s35932", "s38417", "s38584.1"]

BENCH_SEED = 1996


def full_tables() -> bool:
    return os.environ.get("REPRO_FULL_TABLES", "") == "1"


def table_circuits() -> list:
    names = SMALL_CIRCUITS + MEDIUM_CIRCUITS
    if full_tables():
        names += LARGE_CIRCUITS
    return names


def lk24_circuits() -> list:
    names = list(LK24_CIRCUITS)
    if full_tables():
        names += LK24_LARGE
    return names


def bench_config(name: str, lk: int) -> MercedConfig:
    """Per-circuit configuration with a size-scaled saturation cap."""
    n_cells = load_circuit(name).stats()
    size = n_cells.n_dffs + n_cells.n_gates + n_cells.n_inverters
    max_sources = None if size < 800 else 1200
    return MercedConfig(
        lk=lk,
        seed=BENCH_SEED,
        max_sources=max_sources,
        min_visit=20 if size < 800 else 5,
    )


_REPORT_CACHE: Dict[Tuple[str, int], MercedReport] = {}


def merced_report(name: str, lk: int) -> MercedReport:
    """Run (or reuse) the Merced compilation of ``name`` at ``lk``."""
    key = (name, lk)
    if key not in _REPORT_CACHE:
        _REPORT_CACHE[key] = Merced(bench_config(name, lk)).run_named(name)
    return _REPORT_CACHE[key]


@pytest.fixture(scope="session")
def output_dir() -> Path:
    path = Path(__file__).parent / "output"
    path.mkdir(exist_ok=True)
    return path


def emit(output_dir: Path, filename: str, text: str) -> None:
    """Print a reproduced table and persist it for EXPERIMENTS.md."""
    print()
    print(text)
    (output_dir / filename).write_text(text + "\n")
