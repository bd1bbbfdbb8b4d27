"""Regression fixtures for the real concurrency hazards this repo fixed.

Each fixture below is a distilled replica of a hazard the CONC analyzer
found in the shipped service/exec code (and which was subsequently
fixed at the source).  These tests pin the analyzer's ability to catch
each shape, so a rule regression cannot silently let the same bug class
back in — and a couple of runtime smokes exercise the fixes themselves.
"""

import ast
import json
import threading

import pytest

from repro.analysis.concurrency import (
    ModuleIndex,
    ProjectIndex,
    run_concurrency_rules,
)


def conc_findings(code, path="src/repro/service/replica.py"):
    module = ModuleIndex(path, code, ast.parse(code))
    return run_concurrency_rules(ProjectIndex([module]))


class TestAnalyzerCatchesTheFixedHazards:
    def test_event_loop_code_version_hash(self):
        # CompileService.start() called code_version() (walks + hashes
        # the source tree) directly on the event loop.
        code = (
            "def code_version():\n"
            "    import hashlib\n"
            "    digest = hashlib.sha256()\n"
            "    digest.update(open('src/x.py', 'rb').read())\n"
            "    return digest.hexdigest()\n"
            "\n"
            "class CompileServer:\n"
            "    async def start(self):\n"
            "        self._code = code_version()\n"
        )
        hits = [f for f in conc_findings(code) if f[0] == "CONC001"]
        assert len(hits) == 1
        assert "code_version" in hits[0][4]

    def test_event_loop_cache_read(self):
        # submit_point -> ResultCache.get_bytes -> open() served cache
        # hits with disk reads on the loop.
        code = (
            "class ResultCache:\n"
            "    def get_bytes(self, key):\n"
            "        with open(self.path) as fh:\n"
            "            return fh.read()\n"
            "\n"
            "class CompileServer:\n"
            "    def __init__(self):\n"
            "        self.cache = ResultCache()\n"
            "\n"
            "    async def submit_point(self, point, key):\n"
            "        return self.cache.get_bytes(key)\n"
        )
        hits = [f for f in conc_findings(code) if f[0] == "CONC001"]
        assert len(hits) == 1
        assert "ResultCache.get_bytes" in hits[0][4]

    def test_event_loop_cache_flush_unlink(self):
        # drain() flushed the on-disk cache (Path.unlink per entry)
        # inline on the loop.
        code = (
            "class ResultCache:\n"
            "    def flush(self, min_age_s=0.0):\n"
            "        for entry in self.entries:\n"
            "            entry.unlink()\n"
            "\n"
            "class CompileServer:\n"
            "    def __init__(self):\n"
            "        self.cache = ResultCache()\n"
            "\n"
            "    async def drain(self):\n"
            "        self.cache.flush(min_age_s=60.0)\n"
        )
        hits = [f for f in conc_findings(code) if f[0] == "CONC001"]
        assert len(hits) == 1
        assert "flush" in hits[0][4]

    def test_constructor_mkdir_on_loop(self):
        # ResultCache.__post_init__ ran mkdir eagerly, which made
        # CompileService(...) blocking inside `async def _serve`.
        code = (
            "class ResultCache:\n"
            "    def __init__(self, root):\n"
            "        root.mkdir(parents=True, exist_ok=True)\n"
            "\n"
            "async def serve(root):\n"
            "    cache = ResultCache(root)\n"
        )
        hits = [f for f in conc_findings(code) if f[0] == "CONC001"]
        assert len(hits) == 1
        assert "mkdir" in hits[0][4]

    def test_torn_stats_read(self):
        # HotCache.as_dict() read the stats counters outside self._lock
        # while readers/writers mutate them under it.
        code = (
            "import threading\n"
            "\n"
            "class HotCache:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self.hits = 0\n"
            "\n"
            "    def get(self, key):\n"
            "        with self._lock:\n"
            "            self.hits += 1\n"
            "\n"
            "    def as_dict(self):\n"
            "        return {'hits': self.hits}\n"
        )
        hits = [f for f in conc_findings(code) if f[0] == "CONC002"]
        assert len(hits) == 1
        assert hits[0][1] == "warning"
        assert "as_dict" in hits[0][4]

    def test_fork_pool_with_live_threads(self):
        # SweepFarm built ProcessPoolExecutor with the fork default,
        # which copies held locks when service threads are live.
        code = (
            "from concurrent.futures import ProcessPoolExecutor\n"
            "\n"
            "class SweepFarm:\n"
            "    def _new_executor(self):\n"
            "        return ProcessPoolExecutor(max_workers=self.jobs)\n"
        )
        hits = [f for f in conc_findings(code) if f[0] == "CONC006"]
        assert len(hits) == 1
        assert "mp_context" in hits[0][4]


class TestShippedCodeStaysClean:
    def test_analyzer_clean_on_src_repro(self, repo_root):
        from repro.analysis.concurrency.engine import analyze_paths

        report = analyze_paths(
            [str(repo_root / "src" / "repro")],
            tests_dir=str(repo_root / "tests"),
        )
        assert report.diagnostics == (), report.render_text()

    def test_committed_baseline_is_empty(self, repo_root):
        with open(repo_root / "lint_code_baseline.json") as fh:
            assert json.load(fh)["findings"] == []


@pytest.fixture
def repo_root(request):
    import pathlib

    return pathlib.Path(__file__).resolve().parents[2]


class TestRuntimeFixes:
    def test_hot_cache_as_dict_consistent_under_races(self):
        # The fix moved the stats snapshot inside the lock; hammer it
        # from a writer thread and require internally consistent dicts.
        from repro.exec.cache import HotCache

        cache = HotCache(max_entries=8)
        stop = threading.Event()

        def writer():
            i = 0
            while not stop.is_set():
                cache.put(f"k{i % 16}", {"v": i})
                cache.get(f"k{(i + 1) % 16}")
                i += 1

        thread = threading.Thread(target=writer)
        thread.start()
        try:
            for _ in range(300):
                snap = cache.as_dict()
                assert snap["entries"] <= 8
                assert snap["hits"] >= 0 and snap["misses"] >= 0
        finally:
            stop.set()
            thread.join()

    def test_result_cache_stats_snapshot_under_lock(self, tmp_path):
        from repro.exec.cache import ResultCache

        cache = ResultCache(directory=tmp_path)
        cache.put("deadbeef" * 8, {"ok": True}, kind="k", circuit="c")
        assert cache.get("deadbeef" * 8) == {"ok": True}
        snap = cache.stats_snapshot()
        assert snap["hits"] == 1
        assert snap["stores"] == 1

    def test_result_cache_constructor_does_not_touch_disk(self, tmp_path):
        from repro.exec.cache import ResultCache

        root = tmp_path / "never" / "created"
        ResultCache(directory=root)
        assert not root.exists()  # creation is deferred to put()

    def test_farm_executor_uses_spawn_with_live_threads(self):
        from repro.exec.pool import SweepFarm

        farm = SweepFarm(jobs=2)
        ready = threading.Event()
        release = threading.Event()
        contexts = []

        def parked():
            ready.set()
            release.wait(timeout=30)

        thread = threading.Thread(target=parked)
        thread.start()
        ready.wait(timeout=30)
        try:
            executor = farm._new_executor()
            try:
                contexts.append(executor._mp_context.get_start_method())
            finally:
                executor.shutdown(wait=True)
        finally:
            release.set()
            thread.join()
        assert contexts == ["spawn"]
