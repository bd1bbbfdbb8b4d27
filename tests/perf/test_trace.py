"""The perf instrumentation layer: traces, hooks, and the --profile flag."""

import json

import pytest

from repro import perf
from repro.core.cli import main
from repro.perf import PerfTrace, activate, current_trace, deactivate, profiled


@pytest.fixture(autouse=True)
def no_leaked_trace():
    """Instrumentation is global state: every test starts and ends clean."""
    deactivate()
    yield
    deactivate()


class TestPerfTrace:
    def test_stage_accumulates_time_and_calls(self):
        trace = PerfTrace(label="t")
        with trace.stage("a"):
            pass
        with trace.stage("a"):
            pass
        assert trace.stages["a"]["calls"] == 2
        assert trace.stages["a"]["seconds"] >= 0.0
        assert trace.total_seconds >= trace.stages["a"]["seconds"]

    def test_stage_records_on_exception(self):
        trace = PerfTrace()
        with pytest.raises(ValueError):
            with trace.stage("boom"):
                raise ValueError("x")
        assert trace.stages["boom"]["calls"] == 1

    def test_stage_records_peak_rss(self):
        pytest.importorskip("resource")
        trace = PerfTrace()
        with trace.stage("a"):
            pass
        peak = trace.stages["a"]["peak_rss_mb"]
        assert peak > 0
        assert trace.to_dict()["stages"]["a"]["peak_rss_mb"] == peak

    def test_merge_keeps_the_larger_peak_rss(self):
        def worker(seconds, peak):
            slot = {"seconds": seconds, "calls": 1}
            if peak is not None:
                slot["peak_rss_mb"] = peak
            return {"stages": {"compile": slot}}

        trace = PerfTrace()
        trace.merge(worker(1.0, None))
        assert "peak_rss_mb" not in trace.stages["compile"]
        trace.merge(worker(1.0, 80.0))
        trace.merge(worker(2.0, 50.0))
        trace.merge(worker(0.5, None))
        slot = trace.stages["compile"]
        assert slot["peak_rss_mb"] == 80.0
        assert (slot["seconds"], slot["calls"]) == (4.5, 4)

    def test_counters_and_meta(self):
        trace = PerfTrace()
        trace.count("nets_cut")
        trace.count("nets_cut", 4)
        trace.set_meta(circuit="s27", lk=3)
        assert trace.counters["nets_cut"] == 5
        assert trace.meta == {"circuit": "s27", "lk": 3}

    def test_json_roundtrip_and_render(self, tmp_path):
        trace = PerfTrace(label="s27")
        with trace.stage("build"):
            trace.count("edges", 7)
        data = json.loads(trace.to_json())
        assert data["label"] == "s27"
        assert data["counters"]["edges"] == 7
        assert data["stages"]["build"]["calls"] == 1
        out = tmp_path / "trace.json"
        trace.write(out)
        written = json.loads(out.read_text())
        # total_seconds is live wall-clock, so it moves between snapshots
        written.pop("total_seconds")
        data.pop("total_seconds")
        assert written == data
        text = trace.render()
        assert "build" in text and "edges" in text


class TestModuleHooks:
    def test_inactive_hooks_are_noops(self):
        assert current_trace() is None
        with perf.stage("ignored"):
            perf.count("ignored", 3)
        assert current_trace() is None

    def test_activate_routes_hooks_to_trace(self):
        trace = activate(PerfTrace())
        assert current_trace() is trace
        with perf.stage("s"):
            perf.count("c", 2)
        assert deactivate() is trace
        assert current_trace() is None
        assert trace.stages["s"]["calls"] == 1
        assert trace.counters["c"] == 2

    def test_profiled_context_manager_restores_previous(self):
        outer = activate(PerfTrace(label="outer"))
        with profiled("inner") as inner:
            assert current_trace() is inner
            perf.count("k")
        assert current_trace() is outer
        assert inner.counters == {"k": 1}
        assert "k" not in outer.counters


class TestMercedRunPopulatesTrace:
    def test_stages_and_counters(self):
        from repro import Merced, MercedConfig, load_circuit

        with profiled("s27") as trace:
            Merced(MercedConfig(lk=3, seed=7)).run(load_circuit("s27"))
        for stage in (
            "build_graph",
            "scc",
            "make_group",
            "saturate",
            "assign_cbit",
            "area_accounting",
            "assemble_cbits",
        ):
            assert trace.stages[stage]["calls"] >= 1, stage
        for counter in ("dijkstra_runs", "relaxations", "nets_cut"):
            assert trace.counters[counter] > 0, counter
        assert trace.meta["circuit"] == "s27"
        assert trace.meta["lk"] == 3


class TestCLIProfileFlag:
    def test_profile_to_stdout(self, capsys):
        assert main(["s27", "--lk", "3", "--seed", "7", "--profile"]) == 0
        out = capsys.readouterr().out
        payload = out[out.index("{") : out.rindex("}") + 1]
        data = json.loads(payload)
        assert data["meta"]["circuit"] == "s27"
        assert data["stages"]["make_group"]["calls"] >= 1

    def test_profile_to_file_with_selftest(self, tmp_path, capsys):
        out_file = tmp_path / "trace.json"
        assert (
            main(
                [
                    "s27",
                    "--lk",
                    "3",
                    "--seed",
                    "7",
                    "--selftest",
                    "--profile",
                    str(out_file),
                ]
            )
            == 0
        )
        assert f"perf trace written to {out_file}" in capsys.readouterr().out
        data = json.loads(out_file.read_text())
        assert data["counters"]["dijkstra_runs"] > 0
        # the self-test session runs under the same trace
        assert data["stages"]["session_fault_sim"]["calls"] >= 1
        assert data["counters"]["cut_faults_graded"] > 0

    def test_no_profile_leaves_instrumentation_off(self, capsys):
        assert main(["s27", "--lk", "3", "--seed", "7"]) == 0
        assert current_trace() is None
        assert "stages" not in capsys.readouterr().out
