"""Merced benchmark: the compile path, the sweep farm and the service.

One workload in this process::

    python3 bench/run.py --workload iscas-compile --seed 7 --seconds 30 --trace 0

prints, as the last stdout line, one JSON object
``{"correct", "attempted", "failed", "metrics"}`` (oracle failures and
the pass walls go to stderr).  ``--trace 0`` reports every end-to-end
metric of ``BENCHMARK.json``, ``--trace 1`` every per-layer metric (a
layer the workload never enters reads 0).

Every workload, each in a fresh subprocess, with a summary::

    python3 bench/run.py --seed 1996 [--with-trace] [--repeat N] [--out FILE]
    python3 bench/run.py --smoke          # small inputs, one pass each

``--with-trace`` adds one ``--trace 1`` run per workload after the
untraced rounds.  Two result files of the same code, or of a parent and
a change::

    python3 bench/run.py --compare A.json B.json

Exit status is non-zero when an output fails its oracle, a run fails,
or (``--compare``) a metric regressed past its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
E2E = {m["name"]: m for m in SPEC["end_to_end"]}
LAYER = {m["name"]: m for m in SPEC["per_layer"]}

#: Per-layer metrics that are deterministic for a given seed: counters,
#: IR sizes and output quality of the compile path.  ``--compare``
#: reports any change in them; only worse output quality is a regression.
DETERMINISTIC_MODULES = ("flow", "partition", "retiming", "quality")

#: The untraced pass time: a per-layer metric, because across seeds it
#: spreads wider than a 10% bound on a noisy host.  ``run_all`` records
#: every untraced run's pass walls (from its stderr), and ``--compare``
#: judges their medians by the same rule as an end-to-end metric, with
#: this bound.
PASS_METRIC = "workload.pass_s"
PASS_BOUND = 0.10
PASS_WALLS = "pass walls (s):"


def is_deterministic(name: str) -> bool:
    return (
        name.split(".", 1)[0] in DETERMINISTIC_MODULES
        and LAYER[name]["unit"] not in ("s", "ms")
    )


# ---------------------------------------------------------------------------
# one workload in this process
# ---------------------------------------------------------------------------
def import_seconds(repeats: int) -> float:
    """Median wall time of a fresh interpreter importing the workloads,
    and with them the program: the set-up every run starts with."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import workloads"], cwd=HERE, env=env,
            check=True, timeout=120,
        )
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def run_one(args) -> int:
    # A SIGTERM unwinds like an exception, so the service is still stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    sys.path.insert(0, str(ROOT / "src"))
    import workloads  # noqa: E402  (imports the program)

    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root)
    os.environ["TMPDIR"] = work_dir
    tempfile.tempdir = None
    try:
        outcome = workloads.RUNNERS[args.workload](
            args.seed, args.seconds, bool(args.trace), args.smoke, work_dir
        )
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    # setup_s: the median import, then the median set-up of the inputs.
    # The import is timed last, so its interpreters stay out of peak_rss_mb.
    outcome.metrics["setup_s"] += import_seconds(workloads.SETUP_REPEATS)
    wanted = LAYER if args.trace else E2E
    if not args.trace and not set(E2E) <= set(outcome.metrics):
        raise RuntimeError(f"{args.workload} did not measure all of {list(E2E)}")
    metrics = {
        name: {"value": float(outcome.metrics.get(name, 0.0)), "unit": m["unit"]}
        for name, m in wanted.items()
    }
    print(PASS_WALLS, " ".join(f"{w:.6f}" for w in outcome.passes),
          file=sys.stderr)
    for problem in outcome.problems[:50]:
        print(f"FAILED {problem}", file=sys.stderr)
    correct = outcome.failed == 0 and not outcome.problems
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


# ---------------------------------------------------------------------------
# every workload, each in a fresh subprocess
# ---------------------------------------------------------------------------
def host_meta(args) -> Dict[str, object]:
    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        import numpy

        numpy_version: Optional[str] = numpy.__version__
    except ImportError:
        numpy_version = None
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=30,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_commit": commit,
        "seed": args.seed,
        "run_seconds": args.seconds,
        "repeat": args.repeat,
        "with_trace": args.with_trace,
        "smoke": args.smoke,
    }


def run_all(args) -> int:
    plan = [(r, w, 0) for r in range(args.repeat) for w in WORKLOADS]
    if args.with_trace:
        plan += [(0, w, 1) for w in WORKLOADS]
    runs: List[Dict[str, object]] = []
    ok = True
    for rnd, workload, trace in plan:
        cmd = [
            sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(trace),
        ] + (["--smoke"] if args.smoke else [])
        t0 = time.perf_counter()
        proc = subprocess.run(
            cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, timeout=900,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else None
        good = proc.returncode == 0 and bool(result) and result["correct"]
        ok = ok and good
        runs.append({
            "workload": workload, "trace": trace, "round": rnd,
            "exit_code": proc.returncode,
            "wall_s": time.perf_counter() - t0, "result": result,
            "pass_walls": [
                float(wall) for line in proc.stderr.splitlines()
                if line.startswith(PASS_WALLS)
                for wall in line[len(PASS_WALLS):].split()
            ],
        })
        print(
            f"{workload:<14} trace={trace} round={rnd} "
            f"{'ok' if good else 'FAILED'} in {time.perf_counter() - t0:.1f}s",
            file=sys.stderr,
        )
    document = {"_meta": host_meta(args), "runs": runs}
    if args.out:
        Path(args.out).write_text(json.dumps(document, indent=1) + "\n")
    print_summary(document)
    return 0 if ok else 1


def is_good(run) -> bool:
    """A run that exited 0 with every output passing its oracle."""
    return run["exit_code"] == 0 and bool(run["result"]) and (
        run["result"]["correct"]
    )


def values(document, workload: str, metric: str, trace: int) -> List[float]:
    """The metric over the good runs of one workload and trace mode; an
    untraced run's ``workload.pass_s`` is the median of its pass walls."""
    vals = []
    for run in document["runs"]:
        if run["workload"] != workload or run["trace"] != trace or (
            not is_good(run)
        ):
            continue
        if metric == PASS_METRIC and not trace:
            if run.get("pass_walls"):
                vals.append(statistics.median(run["pass_walls"]))
        elif metric in run["result"]["metrics"]:
            vals.append(run["result"]["metrics"][metric]["value"])
    return vals


def failures(document, workload: str) -> Tuple[int, int]:
    """(failed, attempted) operations over every run of one workload; a
    run without a result counts as one failed operation."""
    failed = attempted = 0
    for run in document["runs"]:
        if run["workload"] != workload:
            continue
        result = run["result"] or {"failed": 1, "attempted": 1}
        failed += result["failed"] or (0 if is_good(run) else 1)
        attempted += max(1, result["attempted"])
    return failed, attempted


def print_summary(document) -> None:
    """Median of every metric per workload, by name and with its unit."""
    untraced = dict(E2E, **{PASS_METRIC: LAYER[PASS_METRIC]})
    for workload in WORKLOADS:
        for trace, spec in ((0, untraced), (1, LAYER)):
            for name, m in spec.items():
                vals = values(document, workload, name, trace)
                if vals:
                    print(
                        f"{workload:<14} {name:<28} "
                        f"{statistics.median(vals):>14.6g} {m['unit']:<6} "
                        f"(n={len(vals)})"
                    )
        failed, attempted = failures(document, workload)
        if attempted:
            print(f"{workload:<14} {'failed_frac':<28} "
                  f"{failed / attempted:>14.6g} ratio  "
                  f"({failed}/{attempted} operations)")


# ---------------------------------------------------------------------------
# --compare
# ---------------------------------------------------------------------------
def quartiles(vals: List[float]) -> List[float]:
    if len(vals) < 2:
        return [vals[0]] * 3
    return statistics.quantiles(vals, n=4)


def verdict(a: List[float], b: List[float], bound: float, better: str) -> str:
    """Parent runs ``a`` against change runs ``b`` (choosing-metrics §8).

    *improved*: the change wins at least 9 of every 10 pairs and the
    medians differ by more than the parent's quartile spread.
    *regressed*: the change's median is worse than the parent's by more
    than ``bound`` of it.  *unresolved*: neither, but a run-to-run
    spread is wider than the bound (unless every run of the change
    reads better than every run of the parent).  Otherwise *unchanged*.
    """
    sign = 1.0 if better == "higher" else -1.0
    qa, qb = quartiles(a), quartiles(b)
    med_a, med_b = qa[1], qb[1]
    gain = sign * (med_b - med_a)
    pairs = list(zip(a, b))
    wins = sum(sign * (y - x) > 0 for x, y in pairs)
    if pairs and wins >= 0.9 * len(pairs) and gain > qa[2] - qa[0]:
        return "improved"
    if -gain > bound * abs(med_a):
        return "regressed"
    spread = max((qa[2] - qa[0]) / abs(med_a) if med_a else 0.0,
                 (qb[2] - qb[0]) / abs(med_b) if med_b else 0.0)
    all_better = min(sign * y for y in b) > max(sign * x for x in a)
    if spread > bound and not all_better:
        return "unresolved"
    return "unchanged"


def exact_verdict(name: str, a: List[float], b: List[float], better: str) -> str:
    """A deterministic metric: *unchanged* when identical, else the
    direction it moved.  Only output quality moving the wrong way is
    *regressed*; a work counter that grows is reported as *worse*."""
    if sorted(a) == sorted(b):
        return "unchanged"
    sign = 1.0 if better == "higher" else -1.0
    if sign * (statistics.median(b) - statistics.median(a)) > 0:
        return "improved"
    return "regressed" if name.startswith("quality.") else "worse"


def compare(path_a: str, path_b: str) -> int:
    a = json.loads(Path(path_a).read_text())
    b = json.loads(Path(path_b).read_text())
    for key in ("run_seconds", "smoke"):
        if a["_meta"].get(key) != b["_meta"].get(key):
            print(f"cannot compare: {key} is {a['_meta'].get(key)} in A and "
                  f"{b['_meta'].get(key)} in B", file=sys.stderr)
            return 2
    regressed = False
    print(f"{'workload':<14} {'metric':<28} {'A median [q1, q3]':>34} "
          f"{'B median [q1, q3]':>34}  verdict")
    for workload in WORKLOADS:
        fa, ta = failures(a, workload)
        fb, tb = failures(b, workload)
        if not ta or not tb:
            continue
        more_failures = fb / tb > fa / ta
        result = "regressed" if more_failures else (
            "improved" if fb / tb < fa / ta else "unchanged"
        )
        regressed = regressed or more_failures
        print(f"{workload:<14} {'failed_frac':<28} "
              f"{f'{fa}/{ta}':>34} {f'{fb}/{tb}':>34}  {result}")
        rows = [(name, 0, m["bound"], m["better"]) for name, m in E2E.items()]
        rows.append((PASS_METRIC, 0, PASS_BOUND, LAYER[PASS_METRIC]["better"]))
        rows += [(name, 1, None, m["better"]) for name, m in LAYER.items()
                 if is_deterministic(name)]
        for name, trace, bound, better in rows:
            va = values(a, workload, name, trace)
            vb = values(b, workload, name, trace)
            if not va or not vb:
                continue
            if bound is None:
                result = exact_verdict(name, va, vb, better)
            else:
                result = verdict(va, vb, bound, better)
            if result == "improved" and more_failures:
                # No gain counts while the change fails more operations.
                result = "unresolved"
            regressed = regressed or result == "regressed"
            qa, qb = quartiles(va), quartiles(vb)
            print(
                f"{workload:<14} {name:<28} "
                f"{qa[1]:>12.6g} [{qa[0]:.4g}, {qa[2]:.4g}]".ljust(78)
                + f"{qb[1]:>12.6g} [{qb[0]:.4g}, {qb[2]:.4g}]".ljust(36)
                + f" {result}"
            )
    return 1 if regressed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Merced benchmark (see bench/README.md)"
    )
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1996)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured window per run "
                        "(default: run_seconds, or 0 with --smoke)")
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1),
                        help="with --workload: 1 reports the per-layer "
                        "metrics instead of the end-to-end ones")
    parser.add_argument("--with-trace", action="store_true",
                        help="without --workload: one --trace 1 run per "
                        "workload after the untraced rounds")
    parser.add_argument("--smoke", action="store_true",
                        help="small inputs: s27 + s510, a 400-gate corpus "
                        "circuit, a 6-point sweep, 60 service requests")
    parser.add_argument("--repeat", type=int, default=1,
                        help="untraced rounds over every workload")
    parser.add_argument("--out", help="write every run's result as JSON")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = 0.0 if args.smoke else float(SPEC["run_seconds"])
    if args.compare:
        return compare(*args.compare)
    if args.workload:
        return run_one(args)
    if args.trace:
        parser.error("--trace needs --workload; use --with-trace")
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
