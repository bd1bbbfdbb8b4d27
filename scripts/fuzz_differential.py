"""Continuous differential fuzzing across the whole Merced pipeline.

Draws random corpus circuits (:mod:`repro.corpus`) and checks every
implementation pair that claims agreement:

* compiled CSR kernels vs ``*_reference`` twins (Tarjan, make_group,
  assign_cbit, cut retiming) — bit-identical fingerprints;
* the cut retiming recounted as a legal minimal cover (an output
  oracle, at every circuit size);
* ``merced serve`` vs inline ``Merced.run`` — byte-identical payloads.

A mismatch is shrunk to a minimal failing spec and archived as a
``.bench`` + ``.json`` reproducer pair under ``--archive`` (commit these
as regression inputs).  Exit status: 0 all rounds agree, 1 mismatches
were found (reproducers written), 2 bad usage.

Runs are deterministic for a given ``--seed``/``--rounds``:

    PYTHONPATH=src python scripts/fuzz_differential.py --rounds 20
    PYTHONPATH=src python scripts/fuzz_differential.py \\
        --rounds 100 --seed 3 --max-gates 1200 --no-service
    PYTHONPATH=src python scripts/fuzz_differential.py \\
        --rounds 8 --checks scc pipeline
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))

from repro.corpus.fuzz import CHECKS, run_fuzz  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    parser.add_argument("--rounds", type=int, default=20, help="random circuits to draw")
    parser.add_argument("--seed", type=int, default=20260808, help="session RNG seed")
    parser.add_argument(
        "--max-gates", type=int, default=640, help="largest drawn circuit"
    )
    parser.add_argument("--lk", type=int, default=16, help="CUT input bound l_k")
    parser.add_argument("--beta", type=int, default=1, help="SCC cut budget factor")
    parser.add_argument(
        "--archive",
        default=str(REPO / "benchmarks" / "corpus" / "reproducers"),
        help="directory for shrunken .bench reproducers",
    )
    parser.add_argument(
        "--checks",
        nargs="+",
        choices=list(CHECKS),
        default=None,
        help="restrict to these checks (default: all)",
    )
    parser.add_argument(
        "--no-service",
        action="store_true",
        help="skip the service-vs-inline check (no serve thread)",
    )
    parser.add_argument(
        "--json", metavar="FILE", help="also write the report as JSON"
    )
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    report = run_fuzz(
        rounds=args.rounds,
        seed=args.seed,
        archive_dir=args.archive,
        lk=args.lk,
        beta=args.beta,
        max_gates=args.max_gates,
        with_service=not args.no_service,
        checks=args.checks,
        log=print,
    )
    elapsed = time.perf_counter() - t0

    counts = ", ".join(
        f"{name}×{n}" for name, n in sorted(report.checks_run.items())
    )
    print(
        f"fuzz: {report.rounds} round(s) in {elapsed:.1f}s ({counts}); "
        f"{len(report.mismatches)} mismatch(es)"
    )
    for m in report.mismatches:
        print(f"  [{m.check}] {m.detail}")
        print(f"      reproducer: {m.bench_path}")
    if args.json:
        payload = report.as_dict()
        payload["elapsed_seconds"] = elapsed
        Path(args.json).write_text(json.dumps(payload, indent=2) + "\n")
        print(f"report written to {args.json}")
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
