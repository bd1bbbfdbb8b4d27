"""The regression guards of ``scripts/bench_trend.py --check``.

Each guard is fed synthetic rows, so these tests pin what the check
accepts and rejects without re-running the benchmark.
"""

import importlib.util
import json
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_trend.py"


@pytest.fixture(scope="module")
def trend():
    spec = importlib.util.spec_from_file_location("bench_trend", _SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _row(area_paths=1000, dropped_cuts=40):
    counters = {"dfs_visits": 5000}
    if area_paths is not None:
        counters["area_paths"] = area_paths
    return {
        "dropped_cuts": dropped_cuts,
        "n_cuts_retimed": 100,
        "n_clusters": 12,
        "counters": counters,
    }


def _baseline():
    return {"circuits": {"s510": _row()}}


def test_matching_row_passes(trend):
    assert trend.check_circuit("s510", _row(), _baseline()) == []
    # growth up to the tolerance is accepted
    assert trend.check_circuit("s510", _row(1100), _baseline()) == []


def test_missing_work_counter_fails(trend):
    problems = trend.check_circuit("s510", _row(None), _baseline())
    assert len(problems) == 1
    assert "area_paths missing" in problems[0]


def test_work_growth_past_tolerance_fails(trend):
    problems = trend.check_circuit("s510", _row(1110), _baseline())
    assert len(problems) == 1
    assert "area_paths regressed 1000 -> 1110" in problems[0]


def test_changed_dropped_cuts_fails(trend):
    problems = trend.check_circuit(
        "s510", _row(dropped_cuts=41), _baseline()
    )
    assert problems == ["s510: dropped_cuts changed 40 -> 41"]


def test_circuit_without_baseline_fails(trend):
    assert trend.check_circuit("s641", _row(), _baseline()) == [
        "s641: no committed baseline entry"
    ]


def _optimize_entry(before, after):
    stats = {"sigma_before": before, "sigma_after": after}
    return {"fast": dict(stats), "anneal": dict(stats)}


def test_optimize_baseline_needs_min_improved_anneal_wins(trend, tmp_path):
    path = tmp_path / "BENCH_optimize.json"
    data = {
        "_meta": {"min_improved": 2},
        "circuits": {
            "s510": _optimize_entry(411.0, 400.0),
            "s641": _optimize_entry(532.1, 532.1),
        },
    }
    path.write_text(json.dumps(data))
    problems = trend.check_optimize_baseline(path)
    assert problems == [
        "optimize: only 1 circuit(s) show a strict anneal sigma "
        "reduction (need >= 2)"
    ]
    data["circuits"]["s641"] = _optimize_entry(532.1, 524.3)
    path.write_text(json.dumps(data))
    assert trend.check_optimize_baseline(path) == []


def test_optimize_baseline_rejects_worse_sigma(trend, tmp_path):
    path = tmp_path / "BENCH_optimize.json"
    path.write_text(
        json.dumps({"circuits": {"s510": _optimize_entry(411.0, 412.0)}})
    )
    problems = trend.check_optimize_baseline(path)
    assert "optimize: s510/fast sigma worsened 411.0 -> 412.0" in problems
