"""Refinement tier: Σ guarantee, determinism, schedules, inner solvers."""

import json

import pytest

from repro.circuits.library import load_circuit
from repro.config import MercedConfig
from repro.errors import ConfigError
from repro.graphs import SCCIndex, build_circuit_graph
from repro.optimize import (
    anneal_refine,
    fast_refine,
    optimize_partition,
    refine_cost,
    schedule_steps,
)
from repro.partition import assign_cbit, make_group

#: circuits small enough for the default (fast) test tier
FAST_CIRCUITS = ["s27", "s510"]
#: the remaining bundled benchmarks, exercised under --run-slow
SLOW_CIRCUITS = ["s641", "s713", "s820", "s832", "s1423"]


def _seed_partition(name, budget=2.0, method="anneal"):
    netlist = load_circuit(name)
    graph = build_circuit_graph(netlist, with_po_nodes=False)
    scc_index = SCCIndex(graph)
    config = MercedConfig(optimize=method, optimize_budget=budget)
    group = make_group(graph, scc_index, config)
    partition = assign_cbit(group.partition).partition
    return graph, scc_index, partition, config


class TestConfig:
    def test_rejects_unknown_variant(self):
        with pytest.raises(ConfigError, match="optimize"):
            MercedConfig(optimize="magic")

    def test_rejects_nonpositive_budget(self):
        with pytest.raises(ConfigError, match="optimize_budget"):
            MercedConfig(optimize="fast", optimize_budget=0.0)

    def test_dispatcher_requires_variant(self):
        graph, scc_index, partition, config = _seed_partition("s27")
        with pytest.raises(ConfigError, match="optimize_partition"):
            optimize_partition(
                graph, scc_index, partition, MercedConfig(), name="s27"
            )


class TestSchedule:
    def test_pure_function_of_size(self):
        assert schedule_steps(5.0, 200, 100) == schedule_steps(5.0, 200, 100)
        assert schedule_steps(0.001, 10, 0) == 64  # floor
        assert schedule_steps(1e9, 10, 0) == 50_000  # ceiling

    def test_more_budget_never_fewer_steps(self):
        a = schedule_steps(1.0, 500, 50)
        b = schedule_steps(10.0, 500, 50)
        assert b >= a

    def test_refine_cost_weights(self):
        assert refine_cost(10.0, 0, 0) == 10.0
        assert refine_cost(10.0, 3, 2) == pytest.approx(10.0 + 0.03 + 4.6)


class TestSigmaGuarantee:
    @pytest.mark.parametrize("name", FAST_CIRCUITS)
    @pytest.mark.parametrize("method", ["fast", "anneal"])
    def test_sigma_never_worse(self, name, method):
        graph, scc_index, partition, config = _seed_partition(
            name, budget=1.0, method=method
        )
        res = optimize_partition(
            graph, scc_index, partition, config, name=name, audit=True
        )
        assert res.method == method
        assert res.sigma_after <= res.sigma_before + 1e-9
        assert res.cost_after <= res.cost_before + 1e-9
        res.partition.validate()

    @pytest.mark.slow
    @pytest.mark.parametrize("name", SLOW_CIRCUITS)
    def test_sigma_never_worse_all_bundled(self, name):
        graph, scc_index, partition, config = _seed_partition(
            name, budget=4.0
        )
        res = anneal_refine(
            graph, scc_index, partition, config, name=name
        )
        assert res.sigma_after <= res.sigma_before + 1e-9
        assert res.cost_after <= res.cost_before + 1e-9
        res.partition.validate()

    def test_anneal_improves_sigma_on_s510(self):
        """The acceptance-bar benchmark: a real Σ reduction, not a tie."""
        graph, scc_index, partition, config = _seed_partition(
            "s510", budget=4.0
        )
        res = anneal_refine(graph, scc_index, partition, config, name="s510")
        assert res.sigma_after < res.sigma_before
        assert res.improved


class TestDeterminism:
    @pytest.mark.parametrize("method", ["fast", "anneal"])
    def test_byte_identical_across_runs(self, method):
        graph, scc_index, partition, config = _seed_partition(
            "s510", budget=1.0, method=method
        )
        outs = []
        for _ in range(2):
            res = optimize_partition(
                graph, scc_index, partition, config, name="s510"
            )
            outs.append(
                (
                    json.dumps(res.stats(), sort_keys=True),
                    tuple(
                        sorted(
                            tuple(sorted(c.nodes))
                            for c in res.partition.clusters
                        )
                    ),
                )
            )
        assert outs[0] == outs[1]

    def test_seed_changes_exploration(self):
        """The RNG is resolved per (circuit, seed) — no global state."""
        graph, scc_index, partition, config = _seed_partition(
            "s510", budget=1.0
        )
        a = anneal_refine(graph, scc_index, partition, config, name="s510")
        b = anneal_refine(
            graph,
            scc_index,
            partition,
            config.with_seed(7),
            name="s510",
        )
        # both legal and Σ-guarded regardless of seed
        assert a.sigma_after <= a.sigma_before + 1e-9
        assert b.sigma_after <= b.sigma_before + 1e-9


class TestInnerSolver:
    def test_reported_uncovered_count_is_the_exact_solve(self):
        """The final state's uncovered count comes from one exact
        least-area solve, whose output passes the legal-minimal-cover
        oracle."""
        from repro.graphs.paths import register_weighted_edges
        from repro.retiming.solve import solve_cut_retiming
        from repro.retiming.verify import verify_drop_set

        graph, scc_index, partition, config = _seed_partition(
            "s510", budget=1.0
        )
        res = anneal_refine(graph, scc_index, partition, config, name="s510")
        assert res.sigma_after <= res.sigma_before + 1e-9
        res.partition.validate()
        cuts = res.partition.cut_nets()
        edges = register_weighted_edges(graph)
        solution = solve_cut_retiming(graph, cuts, edges=edges)
        assert verify_drop_set(graph, cuts, solution, edges=edges) is None
        assert res.uncovered_after == len(solution.dropped_cuts)

    def test_uncovered_count_is_what_the_compile_drops(self):
        """The refiner charges the dropped cuts of the solve
        ``compile_circuit`` emits for the refined partition."""
        from repro.core.merced import compile_circuit

        arts = compile_circuit(
            load_circuit("s510"),
            MercedConfig(
                lk=16, seed=1996, optimize="fast", optimize_budget=2.0
            ),
        )
        assert arts.report.optimize["uncovered_after"] == len(
            arts.retiming.dropped_cuts
        )


class TestMercedIntegration:
    def test_report_carries_optimize_stats(self):
        from repro.core.merced import Merced

        config = MercedConfig(optimize="fast", optimize_budget=1.0)
        report = Merced(config).run(load_circuit("s27"))
        assert report.optimize is not None
        assert report.optimize["method"] == "fast"
        assert report.cost_dff == pytest.approx(
            report.optimize["sigma_after"]
        )
        assert "optimize (fast)" in report.render()

    def test_payload_shape_stable_without_optimize(self):
        from repro.core.merced import Merced
        from repro.exec.task import merced_payload

        plain = Merced(MercedConfig()).run(load_circuit("s27"))
        assert plain.optimize is None
        assert "optimize" not in merced_payload(plain)
        tuned = Merced(
            MercedConfig(optimize="fast", optimize_budget=1.0)
        ).run(load_circuit("s27"))
        assert merced_payload(tuned)["optimize"] == tuned.optimize


class TestLintClean:
    def test_optimize_package_is_krn002_clean(self):
        """Satellite 3: no module-global RNG anywhere in the tier."""
        import pathlib

        from repro.analysis.concurrency.engine import analyze_paths

        pkg = (
            pathlib.Path(__file__).resolve().parents[2]
            / "src"
            / "repro"
            / "optimize"
        )
        report = analyze_paths([str(pkg)])
        hits = [
            d for d in report.diagnostics if d.rule_id == "KRN002"
        ]
        assert hits == []
