"""Every shipped example must run to completion (smoke tests)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"
SRC = Path(__file__).resolve().parents[2] / "src"


def run_example(tmp_path, script, *args, timeout=240):
    # Examples bootstrap src/ onto sys.path themselves, but propagate
    # PYTHONPATH too so they also run from an installed/moved layout.
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        str(SRC) + os.pathsep + existing if existing else str(SRC)
    )
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES / script), *args],
        capture_output=True,
        text=True,
        timeout=timeout,
        cwd=tmp_path,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout


def test_quickstart(tmp_path):
    out = run_example(tmp_path, "quickstart.py")
    assert "Merced report for s27" in out
    assert "100.00%" in out


def test_partition_sweep(tmp_path):
    out = run_example(tmp_path, "partition_sweep.py", "s510")
    assert "l_k sweep on s510" in out
    assert "2^24" in out


def test_selftest_coverage(tmp_path):
    out = run_example(tmp_path, "selftest_coverage.py", "s510", "--lk", "8")
    assert "fault coverage:" in out
    assert "test pipes:" in out


def test_retime_custom_circuit(tmp_path):
    out = run_example(tmp_path, "retime_custom_circuit.py")
    assert "behavioural equivalence verified" in out
    # the demo's retiming moves a register onto a cut, not the identity
    assert "non-zero lags: {" in out
    assert "retiming covers ['" in out


def test_bist_netlist_export(tmp_path):
    out = run_example(
        tmp_path, "bist_netlist_export.py", "s27", "--out", "bist.bench"
    )
    assert "normal mode bit-identical to original: True" in out
    # the example resolves relative output paths against its cwd and
    # reports the absolute location of the artifact it wrote
    artifact = tmp_path / "bist.bench"
    assert artifact.exists() and artifact.stat().st_size > 0
    assert str(artifact.resolve()) in out


def test_bist_netlist_export_default_name(tmp_path):
    out = run_example(tmp_path, "bist_netlist_export.py", "s27")
    artifact = tmp_path / "s27_bist.bench"
    assert artifact.exists() and artifact.stat().st_size > 0
    assert str(artifact.resolve()) in out


def test_random_vs_exhaustive(tmp_path):
    out = run_example(tmp_path, "random_vs_exhaustive.py")
    assert "pseudo-exhaustive at" in out


def test_structural_selftest(tmp_path):
    out = run_example(tmp_path, "structural_selftest.py")
    assert "100.0%" in out
    assert "final-pipe signatures" in out


def test_every_example_is_covered():
    """Adding an example without a smoke test should fail loudly."""
    scripts = {p.name for p in EXAMPLES.glob("*.py")}
    tested = {
        "quickstart.py",
        "partition_sweep.py",
        "selftest_coverage.py",
        "retime_custom_circuit.py",
        "bist_netlist_export.py",
        "random_vs_exhaustive.py",
        "structural_selftest.py",
    }
    assert scripts == tested
