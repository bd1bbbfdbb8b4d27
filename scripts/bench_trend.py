"""Track partition/retiming kernel performance across PRs.

Runs the compiled-kernel partition + retiming workload (the same shape
as ``benchmarks/bench_partition_kernels.py``) on every default-bundled
ISCAS circuit plus one generated ``corpus-*`` circuit at claimed scale
(50k gates, see :mod:`repro.corpus`) and writes ``BENCH_partition.json``
at the repo root:
per circuit, the wall-clock seconds per stage and the hot-path counter
totals (``dfs_visits``, ``boundary_pops``, ``gain_evals``,
``area_paths``, ...).  The retiming stage is the least-area solve
``compile_circuit`` runs
(:func:`repro.retiming.solve.solve_cut_retiming`).  The JSON is
committed as a baseline so future PRs can diff both time and *work* —
a counter regression flags an algorithmic change even when wall clock
is noisy on shared runners.

Run (writes the baseline in place):
    PYTHONPATH=src python scripts/bench_trend.py
    PYTHONPATH=src python scripts/bench_trend.py --out other.json

Regression-guard mode (CI): re-runs the workload and compares the
deterministic fields against the committed baseline without writing —
exits 2 when ``dropped_cuts``, ``n_cuts_retimed`` or ``n_clusters``
changes, or the work counter ``area_paths`` grows by more than 10% or is
missing from the fresh run:
    PYTHONPATH=src python scripts/bench_trend.py --check --circuits s641

``--check`` also statically validates the committed refinement-tier
baseline without re-running it, so CI stays fast
(``BENCH_optimize.json``, written by ``scripts/bench_optimize.py`` —
every entry must keep ``sigma_after ≤ sigma_before`` and enough entries
must show a strict anneal Σ reduction).

Opt-in axes: heavyweight circuits that should not run on every CI pass
(e.g. ``corpus-200k``) are excluded from the default set but can be
appended with ``--include``:
    PYTHONPATH=src python scripts/bench_trend.py --include corpus-200k
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))

from repro import MercedConfig  # noqa: E402
from repro.circuits import load_circuit  # noqa: E402
from repro.corpus import (  # noqa: E402
    TREND_SPECS,
    generate_corpus_circuit,
    load_corpus_circuit,
)
from repro.flow.saturate import saturate_network  # noqa: E402
from repro.graphs import SCCIndex, build_circuit_graph  # noqa: E402
from repro.partition import assign_cbit, make_group  # noqa: E402
from repro.perf import profiled, stage  # noqa: E402
from repro.retiming.solve import solve_cut_retiming  # noqa: E402

OUT = REPO / "BENCH_partition.json"
OPTIMIZE_OUT = REPO / "BENCH_optimize.json"

#: Default bench set (matches benchmarks/conftest.py SMALL + MEDIUM),
#: plus one generated corpus circuit at the paper's claimed scale so the
#: trend file tracks kernel performance well beyond the bundled suite.
CIRCUITS = [
    "s510",
    "s420.1",
    "s641",
    "s713",
    "s820",
    "s832",
    "s838.1",
    "s1423",
    "s5378",
    "corpus-50k",
]

#: Opt-in axes: valid ``--include`` names that are deliberately absent
#: from :data:`CIRCUITS` so default (and CI) runs stay fast.  The
#: 200k-gate corpus circuit takes minutes on a laptop-class host —
#: include it explicitly when probing scale:
#:     bench_trend.py --include corpus-200k
OPT_IN_CIRCUITS = ["corpus-200k"]


def load_trend_circuit(name):
    """Resolve a circuit name: bundled ISCAS bench or generated corpus.

    ``corpus-*`` names come from :mod:`repro.corpus` — trend-scale specs
    are regenerated on the fly (deterministic per seed), seed-corpus
    names load the committed ``benchmarks/corpus`` generation.
    """
    if name.startswith("corpus-"):
        if name in TREND_SPECS:
            return generate_corpus_circuit(TREND_SPECS[name])
        return load_corpus_circuit(name)
    return load_circuit(name)

#: The retiming solve's work counter (augmenting paths) and its allowed
#: relative growth before --check fails.
WORK_COUNTER = "area_paths"
WORK_TOLERANCE = 1.10

LK = 16
SEED = 1996


def config_for(netlist) -> MercedConfig:
    """Size-scaled config, mirroring benchmarks/conftest.bench_config."""
    stats = netlist.stats()
    size = stats.n_dffs + stats.n_gates + stats.n_inverters
    return MercedConfig(
        lk=LK,
        seed=SEED,
        max_sources=None if size < 800 else 1200,
        min_visit=20 if size < 800 else 5,
    )


def run_circuit(name: str) -> dict:
    netlist = load_trend_circuit(name)
    config = config_for(netlist)
    graph = build_circuit_graph(netlist, with_po_nodes=False)
    scc_index = SCCIndex(graph)
    saturate_network(graph, config)  # not timed: this PR's kernels start below
    t0 = time.perf_counter()
    with profiled(name) as trace:
        with stage("make_group"):
            group = make_group(
                graph, scc_index, config, presaturated=True, strict=False
            )
        with stage("assign_cbit"):
            merged = assign_cbit(group.partition)
        cuts = merged.partition.cut_nets()
        with stage("retiming"):
            solution = solve_cut_retiming(graph, cuts)
    seconds = time.perf_counter() - t0
    return {
        "seconds": round(seconds, 4),
        "stages": {
            s: round(v["seconds"], 4) for s, v in sorted(trace.stages.items())
        },
        "counters": dict(sorted(trace.counters.items())),
        "n_clusters": len(merged.partition.clusters),
        "n_cuts_retimed": len(cuts),
        "dropped_cuts": len(solution.dropped_cuts),
        "covered_cuts": len(solution.covered_cuts),
        "unconstrained_cuts": len(solution.unconstrained_cuts),
    }


def check_circuit(name: str, result: dict, baseline: dict) -> list:
    """Compare one fresh run against the committed baseline entry.

    Returns a list of human-readable regression strings (empty = pass).
    Deterministic fields must match exactly; :data:`WORK_COUNTER` is a
    work metric and may grow up to :data:`WORK_TOLERANCE`.  A baseline
    that has it and a fresh run that lacks it fail, so renaming the
    counter cannot switch the guard off.
    """
    problems = []
    base = baseline.get("circuits", {}).get(name)
    if base is None:
        return [f"{name}: no committed baseline entry"]
    for field in ("dropped_cuts", "n_cuts_retimed", "n_clusters"):
        if field in base and result[field] != base[field]:
            problems.append(
                f"{name}: {field} changed {base[field]} -> {result[field]}"
            )
    base_work = base.get("counters", {}).get(WORK_COUNTER)
    now_work = result["counters"].get(WORK_COUNTER)
    if base_work is not None and now_work is None:
        problems.append(
            f"{name}: {WORK_COUNTER} missing from the fresh run "
            f"(baseline {base_work})"
        )
    elif base_work is not None and now_work > base_work * WORK_TOLERANCE:
        problems.append(
            f"{name}: {WORK_COUNTER} regressed {base_work} -> {now_work} "
            f"(> {WORK_TOLERANCE:.0%} of baseline)"
        )
    return problems


def check_optimize_baseline(path: Path) -> list:
    """Statically validate the committed ``--optimize`` baseline.

    ``scripts/bench_optimize.py`` re-compiles every circuit twice with a
    10 s anneal budget — too heavy for every CI pass — so the guard
    asserts what the refinement tier promises about the *committed*
    result: every entry's ``sigma_after ≤ sigma_before`` (the Σ
    guarantee) and at least ``_meta.min_improved`` entries carry a
    strict Σ reduction (the tier actually earns its keep).  The
    ``optimize-smoke`` CI job re-runs two small circuits live.
    """
    if not path.exists():
        return [f"optimize: no committed baseline at {path}"]
    try:
        data = json.loads(path.read_text())
    except ValueError as exc:
        return [f"optimize: {path} is not valid JSON ({exc})"]
    problems = []
    circuits = data.get("circuits") or {}
    if not circuits:
        return [f"optimize: {path} has no circuit entries"]
    improved = 0
    for name, entry in sorted(circuits.items()):
        for method in ("fast", "anneal"):
            stats = entry.get(method)
            if stats is None:
                problems.append(f"optimize: {name} missing {method} entry")
                continue
            if stats["sigma_after"] > stats["sigma_before"] + 1e-9:
                problems.append(
                    f"optimize: {name}/{method} sigma worsened "
                    f"{stats['sigma_before']} -> {stats['sigma_after']}"
                )
        anneal = entry.get("anneal") or {}
        if anneal and anneal["sigma_after"] < anneal["sigma_before"]:
            improved += 1
    need = (data.get("_meta") or {}).get("min_improved", 3)
    if improved < need:
        problems.append(
            f"optimize: only {improved} circuit(s) show a strict anneal "
            f"sigma reduction (need >= {need})"
        )
    return problems


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=OUT)
    parser.add_argument(
        "--circuits", nargs="*", default=CIRCUITS, metavar="NAME"
    )
    parser.add_argument(
        "--include",
        nargs="*",
        default=[],
        metavar="NAME",
        help="append opt-in axes excluded from the default set "
        f"(e.g. {' '.join(OPT_IN_CIRCUITS)})",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="compare against the committed baseline instead of writing; "
        "exit 2 on dropped_cuts / area_paths regressions or "
        "a failing optimize baseline (BENCH_optimize.json)",
    )
    args = parser.parse_args(argv)
    args.circuits = list(args.circuits) + list(args.include)
    baseline = None
    if args.check:
        if not args.out.exists():
            print(f"--check: no baseline at {args.out}", file=sys.stderr)
            raise SystemExit(2)
        baseline = json.loads(args.out.read_text())
    payload = {
        "_meta": {
            "workload": "partition+retiming, compiled kernels",
            "lk": LK,
            "seed": SEED,
            "python": platform.python_version(),
            "note": (
                "counter totals are deterministic; seconds vary with the "
                "host — diff counters first"
            ),
        },
        "circuits": {},
    }
    problems = []
    for name in args.circuits:
        result = run_circuit(name)
        payload["circuits"][name] = result
        counters = result["counters"]
        print(
            f"{name:>10}: {result['seconds']:7.3f}s  "
            + "  ".join(f"{k}={counters[k]}" for k in sorted(counters))
        )
        if baseline is not None:
            problems.extend(check_circuit(name, result, baseline))
    if args.check:
        problems.extend(check_optimize_baseline(OPTIMIZE_OUT))
        if problems:
            for p in problems:
                print(f"REGRESSION {p}", file=sys.stderr)
            raise SystemExit(2)
        print(f"--check: {len(payload['circuits'])} circuit(s) match "
              f"{args.out}")
        return
    args.out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
