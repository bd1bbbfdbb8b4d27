"""CONC001–CONC006: positive and negative fixtures for every rule."""

import textwrap

import pytest

from repro.analysis.concurrency import (
    ModuleIndex,
    ProjectIndex,
    run_concurrency_rules,
)


def findings(code, path="src/repro/service/fake.py", rule=None):
    import ast

    source = textwrap.dedent(code)
    module = ModuleIndex(path, source, ast.parse(source))
    project = ProjectIndex([module])
    raw = run_concurrency_rules(project)
    if rule is not None:
        raw = [f for f in raw if f[0] == rule]
    return raw


def rule_ids(code, **kw):
    return [f[0] for f in findings(code, **kw)]


class TestConc001Blocking:
    def test_direct_time_sleep(self):
        raw = findings(
            """
            import time

            async def handler():
                time.sleep(1)
            """,
            rule="CONC001",
        )
        assert len(raw) == 1
        assert raw[0][1] == "error"
        assert "time.sleep" in raw[0][4]

    def test_open_and_subprocess(self):
        assert rule_ids(
            """
            import subprocess

            async def handler(path):
                with open(path) as fh:
                    data = fh.read()
                subprocess.run(["ls"])
            """,
            rule="CONC001",
        ) == ["CONC001", "CONC001"]

    def test_blocking_through_call_chain(self):
        raw = findings(
            """
            async def handler():
                helper()

            def helper():
                return deeper()

            def deeper():
                return open("/etc/hostname").read()
            """,
            rule="CONC001",
        )
        assert len(raw) == 1
        assert "helper" in raw[0][4]

    def test_blocking_method_via_self_attr_binding(self):
        raw = findings(
            """
            class Store:
                def load(self):
                    return open(self.path).read()

            class Service:
                def __init__(self):
                    self.store = Store()

                async def get(self):
                    return self.store.load()
            """,
            rule="CONC001",
        )
        assert len(raw) == 1
        assert "Store.load" in raw[0][4]

    def test_lock_acquire_in_async(self):
        raw = findings(
            """
            async def handler(self):
                self._lock.acquire()
            """,
            rule="CONC001",
        )
        assert len(raw) == 1
        assert "acquire" in raw[0][4]

    def test_sync_with_lock_in_async_is_warning(self):
        raw = findings(
            """
            async def handler(self):
                with self._lock:
                    pass
            """,
            rule="CONC001",
        )
        assert len(raw) == 1
        assert raw[0][1] == "warning"

    def test_negative_executor_offload(self):
        assert (
            rule_ids(
                """
                import asyncio

                def helper():
                    return open("/etc/hostname").read()

                async def handler():
                    loop = asyncio.get_running_loop()
                    return await loop.run_in_executor(None, helper)
                """,
                rule="CONC001",
            )
            == []
        )

    def test_negative_blocking_inside_offloaded_closure(self):
        # The lambda body is a separate scope: its blocking call runs
        # on the executor thread, not the loop.
        assert (
            rule_ids(
                """
                import asyncio

                async def handler(cache):
                    loop = asyncio.get_running_loop()
                    return await loop.run_in_executor(
                        None, lambda: open("/tmp/x").read()
                    )
                """,
                rule="CONC001",
            )
            == []
        )

    def test_negative_awaited_async_helper(self):
        assert (
            rule_ids(
                """
                import asyncio

                async def helper():
                    await asyncio.sleep(1)

                async def handler():
                    await helper()
                """,
                rule="CONC001",
            )
            == []
        )

    def test_negative_sync_function_may_block(self):
        assert (
            rule_ids(
                """
                import time

                def cli_path():
                    time.sleep(1)
                """,
                rule="CONC001",
            )
            == []
        )


class TestConc002SharedAttrs:
    POSITIVE = """
        import threading

        class Counter:
            def __init__(self):
                self._lock = threading.Lock()
                self.count = 0

            def inc(self):
                with self._lock:
                    self.count += 1

            def reset(self):
                self.count = 0

            def read(self):
                return self.count
    """

    def test_unguarded_write_is_error(self):
        raw = findings(self.POSITIVE, rule="CONC002")
        writes = [f for f in raw if f[1] == "error"]
        assert len(writes) == 1
        assert "reset" in writes[0][4]

    def test_unguarded_read_is_warning(self):
        raw = findings(self.POSITIVE, rule="CONC002")
        reads = [f for f in raw if f[1] == "warning"]
        assert len(reads) == 1
        assert "read" in reads[0][4]

    def test_negative_all_guarded(self):
        assert (
            rule_ids(
                """
                import threading

                class Counter:
                    def __init__(self):
                        self._lock = threading.Lock()
                        self.count = 0

                    def inc(self):
                        with self._lock:
                            self.count += 1

                    def read(self):
                        with self._lock:
                            return self.count
                """,
                rule="CONC002",
            )
            == []
        )

    def test_negative_init_writes_exempt(self):
        # Construction happens before the object is shared.
        assert (
            rule_ids(
                """
                import threading

                class Counter:
                    def __init__(self):
                        self._lock = threading.Lock()
                        self.count = 0
                        self.count = 1

                    def inc(self):
                        with self._lock:
                            self.count += 1
                """,
                rule="CONC002",
            )
            == []
        )

    def test_negative_lockless_class_unflagged(self):
        assert (
            rule_ids(
                """
                class Plain:
                    def set(self, v):
                        self.value = v

                    def get(self):
                        return self.value
                """,
                rule="CONC002",
            )
            == []
        )

    def test_attr_of_attr_write_uses_base(self):
        raw = findings(
            """
            import threading

            class Stats:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.stats = object()

                def bump(self):
                    with self._lock:
                        self.stats.hits = 1

                def torn(self):
                    self.stats.hits = 2
            """,
            rule="CONC002",
        )
        assert [f[1] for f in raw] == ["error"]
        assert "torn" in raw[0][4]


class TestConc003LockOrder:
    def test_ab_ba_cycle(self):
        raw = findings(
            """
            import threading

            class D:
                def __init__(self):
                    self.a_lock = threading.Lock()
                    self.b_lock = threading.Lock()

                def one(self):
                    with self.a_lock:
                        with self.b_lock:
                            pass

                def two(self):
                    with self.b_lock:
                        with self.a_lock:
                            pass
            """,
            rule="CONC003",
        )
        assert len(raw) == 1
        assert raw[0][1] == "error"
        assert "D.a_lock" in raw[0][4] and "D.b_lock" in raw[0][4]

    def test_negative_consistent_order(self):
        assert (
            rule_ids(
                """
                import threading

                class D:
                    def __init__(self):
                        self.a_lock = threading.Lock()
                        self.b_lock = threading.Lock()

                    def one(self):
                        with self.a_lock:
                            with self.b_lock:
                                pass

                    def two(self):
                        with self.a_lock:
                            with self.b_lock:
                                pass
                """,
                rule="CONC003",
            )
            == []
        )

    def test_three_way_cycle(self):
        raw = findings(
            """
            import threading

            class T:
                def f(self):
                    with self.a_lock:
                        with self.b_lock:
                            pass

                def g(self):
                    with self.b_lock:
                        with self.c_lock:
                            pass

                def h(self):
                    with self.c_lock:
                        with self.a_lock:
                            pass
            """,
            rule="CONC003",
        )
        assert len(raw) == 1


class TestConc004Unawaited:
    def test_bare_coroutine_statement(self):
        raw = findings(
            """
            import asyncio

            async def work():
                await asyncio.sleep(1)

            async def driver():
                work()
            """,
            rule="CONC004",
        )
        assert len(raw) == 1
        assert "drops it" in raw[0][4]

    def test_dropped_create_task_result(self):
        raw = findings(
            """
            import asyncio

            async def work():
                pass

            async def driver():
                t = asyncio.create_task(work())
            """,
            rule="CONC004",
        )
        assert len(raw) == 1
        assert "'t'" in raw[0][4]

    def test_dropped_on_one_path_only(self):
        raw = findings(
            """
            import asyncio

            async def work():
                pass

            async def driver(flag):
                t = asyncio.create_task(work())
                if flag:
                    await t
            """,
            rule="CONC004",
        )
        assert len(raw) == 1  # the no-await path leaks it

    def test_negative_awaited(self):
        assert (
            rule_ids(
                """
                import asyncio

                async def work():
                    pass

                async def driver():
                    await work()
                    t = asyncio.create_task(work())
                    await t
                """,
                rule="CONC004",
            )
            == []
        )

    def test_negative_stored_task(self):
        assert (
            rule_ids(
                """
                import asyncio

                async def work():
                    pass

                async def driver(self):
                    t = asyncio.create_task(work())
                    self._tasks.append(t)
                """,
                rule="CONC004",
            )
            == []
        )

    def test_negative_returned_coroutine(self):
        assert (
            rule_ids(
                """
                async def work():
                    pass

                def factory():
                    return work()
                """,
                rule="CONC004",
            )
            == []
        )


class TestConc005SignalHandlers:
    def test_blocking_handler(self):
        raw = findings(
            """
            import signal
            import time

            def on_term(signum, frame):
                time.sleep(1)

            signal.signal(signal.SIGTERM, on_term)
            """,
            rule="CONC005",
        )
        assert len(raw) == 1
        assert raw[0][1] == "warning"
        assert "on_term" in raw[0][4]

    def test_lock_taking_handler(self):
        raw = findings(
            """
            import signal

            def on_term(signum, frame):
                with STATE_LOCK:
                    pass

            signal.signal(signal.SIGTERM, on_term)
            """,
            rule="CONC005",
        )
        assert len(raw) == 1
        assert "lock" in raw[0][4].lower()

    def test_negative_raise_only_handler(self):
        # The watchdog idiom: a handler that only raises is safe.
        assert (
            rule_ids(
                """
                import signal

                def on_alarm(signum, frame):
                    raise TimeoutError("deadline")

                signal.signal(signal.SIGALRM, on_alarm)
                """,
                rule="CONC005",
            )
            == []
        )

    def test_negative_flag_setting_handler(self):
        assert (
            rule_ids(
                """
                import signal

                FLAG = []

                def on_term(signum, frame):
                    FLAG.append(signum)

                signal.signal(signal.SIGTERM, on_term)
                """,
                rule="CONC005",
            )
            == []
        )

    def test_negative_loop_add_signal_handler(self):
        # The asyncio API runs the callback on the loop, not in a
        # signal context — out of scope for CONC005.
        assert (
            rule_ids(
                """
                import asyncio
                import signal
                import time

                def slow():
                    time.sleep(1)

                def setup(loop):
                    loop.add_signal_handler(signal.SIGTERM, slow)
                """,
                rule="CONC005",
            )
            == []
        )


class TestConc006ForkAfterThreads:
    def test_bare_process_pool_executor(self):
        raw = findings(
            """
            from concurrent.futures import ProcessPoolExecutor

            def boot(jobs):
                return ProcessPoolExecutor(max_workers=jobs)
            """,
            rule="CONC006",
        )
        assert len(raw) == 1
        assert raw[0][1] == "warning"
        assert "mp_context" in raw[0][4]

    def test_explicit_fork_context(self):
        assert rule_ids(
            """
            import multiprocessing

            ctx = multiprocessing.get_context("fork")
            """,
            rule="CONC006",
        ) == ["CONC006"]

    def test_set_start_method_fork(self):
        assert rule_ids(
            """
            import multiprocessing

            multiprocessing.set_start_method("fork")
            """,
            rule="CONC006",
        ) == ["CONC006"]

    def test_bare_pool_and_process(self):
        assert rule_ids(
            """
            import multiprocessing

            def boot(target):
                p = multiprocessing.Pool(4)
                w = multiprocessing.Process(target=target)
                return p, w
            """,
            rule="CONC006",
        ) == ["CONC006", "CONC006"]

    def test_negative_spawn_context(self):
        assert (
            rule_ids(
                """
                import multiprocessing
                from concurrent.futures import ProcessPoolExecutor

                def boot(jobs):
                    ctx = multiprocessing.get_context("spawn")
                    pool = ProcessPoolExecutor(
                        max_workers=jobs, mp_context=ctx
                    )
                    worker = ctx.Process(target=print)
                    return pool, worker
                """,
                rule="CONC006",
            )
            == []
        )


class TestSuppressionAndCrossModule:
    def test_inline_disable_marker(self):
        import ast

        from repro.analysis.concurrency.engine import analyze_paths

        source = textwrap.dedent(
            """
            import time

            async def handler():
                time.sleep(1)  # lint: disable=CONC001
            """
        )
        import os
        import tempfile

        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "mod.py")
            with open(path, "w") as fh:
                fh.write(source)
            report = analyze_paths([path])
        assert not report.diagnostics

    def test_cross_module_blocking_propagation(self):
        import ast
        import os
        import tempfile

        with tempfile.TemporaryDirectory() as tmp:
            helper = os.path.join(tmp, "helper.py")
            with open(helper, "w") as fh:
                fh.write("def slow():\n    return open('/x').read()\n")
            main = os.path.join(tmp, "mainmod.py")
            with open(main, "w") as fh:
                fh.write(
                    "from helper import slow\n\n"
                    "async def handler():\n"
                    "    slow()\n"
                )
            modules = []
            for path in (helper, main):
                with open(path) as fh:
                    code = fh.read()
                modules.append(ModuleIndex(path, code, ast.parse(code)))
            project = ProjectIndex(modules)
            raw = [
                f
                for f in run_concurrency_rules(project)
                if f[0] == "CONC001"
            ]
        assert len(raw) == 1
        assert "slow" in raw[0][4]
