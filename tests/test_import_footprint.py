"""What importing the compile path loads.

The compile, lint, retiming-apply and client modules are pure stdlib
graph work; the asyncio server side, the source-tree analyzers and the
equivalence checker load only when a caller asks for them.  Each check
runs in a fresh interpreter, since this test process has imported
everything already.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

COMPILE_PATH = (
    "repro.core.merced",
    "repro.analysis.lint",
    "repro.retiming.apply",
    "repro.service.client",
)

NEVER_LOADED = (
    "numpy",
    "asyncio",
    "repro.service.server",
    "repro.analysis.concurrency",
    "repro.retiming.initial_state",
)

LAZY_PACKAGES = ("repro.service", "repro.analysis", "repro.retiming")


def _run(code: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_compile_path_imports_nothing_it_does_not_use():
    code = (
        "import json, sys\n"
        + "".join(f"import {m}\n" for m in COMPILE_PATH)
        + f"print(json.dumps([m for m in {list(NEVER_LOADED)!r} "
        "if m in sys.modules]))\n"
    )
    assert json.loads(_run(code)) == []


def test_every_exported_name_still_resolves():
    code = (
        "import importlib, json\n"
        "missing = []\n"
        f"for pkg in {list(LAZY_PACKAGES)!r}:\n"
        "    mod = importlib.import_module(pkg)\n"
        "    missing += [f'{pkg}.{n}' for n in mod.__all__\n"
        "                if getattr(mod, n, None) is None]\n"
        "    scope = {}\n"
        "    exec(f'from {pkg} import *', scope)\n"
        "    missing += [f'{pkg}.{n} (star)' for n in mod.__all__\n"
        "                if n not in scope]\n"
        "    if hasattr(mod, 'no_such_export'):\n"
        "        missing.append(f'{pkg}.no_such_export resolved')\n"
        "print(json.dumps(missing))\n"
    )
    assert json.loads(_run(code)) == []
