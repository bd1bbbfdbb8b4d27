"""The KRN kernel-lint rules through the ``merced lint-code`` command.

Each case runs the command in a fresh interpreter, the way CI runs it:
exit codes, filters, disable markers and path scope.
"""

import json
import os
import subprocess
import sys

REPO = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
)
SRC = os.path.join(REPO, "src")

KRN002_HIT = (
    "import random\n"
    "\n"
    "def jitter():\n"
    "    return random.random()\n"
)


def run(*argv, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys; from repro.core.cli import main; sys.exit(main())",
            "lint-code",
            *argv,
        ],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=env,
        timeout=120,
    )


class TestExitCodes:
    def test_clean_file_exits_zero(self, tmp_path):
        path = tmp_path / "ok.py"
        path.write_text("def fine():\n    return 1\n")
        proc = run(str(path), cwd=tmp_path)
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_krn002_exits_one(self, tmp_path):
        path = tmp_path / "bad.py"
        path.write_text(KRN002_HIT)
        proc = run(str(path), cwd=tmp_path)
        assert proc.returncode == 1
        assert "KRN002" in proc.stdout

    def test_numpy_global_rng_exits_one(self, tmp_path):
        path = tmp_path / "np_bad.py"
        path.write_text(
            "import numpy as np\n"
            "\n"
            "def jitter():\n"
            "    return np.random.rand(3)\n"
        )
        proc = run(str(path), cwd=tmp_path)
        assert proc.returncode == 1
        assert "KRN002" in proc.stdout
        assert "numpy" in proc.stdout

    def test_shipped_tree_is_clean(self):
        proc = run("src", cwd=REPO)
        assert proc.returncode == 0, proc.stdout + proc.stderr


class TestDisableMarkers:
    def test_inline_disable_suppresses(self, tmp_path):
        path = tmp_path / "waived.py"
        path.write_text(
            KRN002_HIT.replace(
                "random.random()",
                "random.random()  # lint: disable=KRN002",
            )
        )
        proc = run(str(path), cwd=tmp_path)
        assert proc.returncode == 0, proc.stdout

    def test_disable_wrong_rule_does_not_suppress(self, tmp_path):
        path = tmp_path / "wrong.py"
        path.write_text(
            KRN002_HIT.replace(
                "random.random()",
                "random.random()  # lint: disable=KRN001",
            )
        )
        proc = run(str(path), cwd=tmp_path)
        assert proc.returncode == 1

    def test_suppress_flag(self, tmp_path):
        path = tmp_path / "bad.py"
        path.write_text(KRN002_HIT)
        proc = run(str(path), "--suppress", "KRN002", cwd=tmp_path)
        assert proc.returncode == 0


class TestPathFiltering:
    def test_directory_recurses_only_py(self, tmp_path):
        (tmp_path / "sub").mkdir()
        (tmp_path / "sub" / "bad.py").write_text(KRN002_HIT)
        (tmp_path / "notes.txt").write_text("random.random()\n")
        proc = run(str(tmp_path), "--json", cwd=tmp_path)
        assert proc.returncode == 1
        payload = json.loads(proc.stdout)
        locations = [d["location"] for d in payload["diagnostics"]]
        assert len(locations) == 1
        assert locations[0].endswith("bad.py:4")

    def test_explicit_file_limits_scope(self, tmp_path):
        (tmp_path / "bad.py").write_text(KRN002_HIT)
        (tmp_path / "ok.py").write_text("def fine():\n    return 1\n")
        proc = run(str(tmp_path / "ok.py"), cwd=tmp_path)
        assert proc.returncode == 0

    def test_rng_module_exempt_from_krn002(self, tmp_path):
        flow = tmp_path / "flow"
        flow.mkdir()
        (flow / "rng.py").write_text(KRN002_HIT)
        proc = run(str(flow), cwd=tmp_path)
        assert proc.returncode == 0, proc.stdout
