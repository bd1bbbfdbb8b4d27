"""Structural self-test through the emitted BIST netlist."""

import pytest

from repro import Merced, MercedConfig
from repro.circuits import load_circuit
from repro.cbit import insert_test_hardware
from repro.errors import SimulationError
from repro.faults import StuckAtFault, full_fault_list
from repro.ppet import schedule_pipes
from repro.ppet.structural import run_structural_pipes


@pytest.fixture(scope="module")
def setup():
    s27 = load_circuit("s27")
    report = Merced(MercedConfig(lk=3, seed=7)).run(s27)
    bist = insert_test_hardware(
        s27,
        report.partition,
        include_scan=True,
        include_primary_inputs=True,
        include_primary_outputs=True,
        dual_mode_controls=True,
    )
    sched = schedule_pipes(report.partition, report.plan)
    return s27, report, bist, sched


class TestPipeMode:
    def test_full_coverage_on_s27(self, setup):
        """The paper's architecture end to end: dual-mode CBITs, test
        pipes, 100% stuck-at coverage through the emitted gates."""
        s27, _, bist, sched = setup
        faults = full_fault_list(s27, include_inputs=False)
        res = run_structural_pipes(bist, sched, faults=faults)
        assert res.coverage == 1.0

    def test_testing_time_is_pipes_times_exhaustive(self, setup):
        _, _, bist, sched = setup
        res = run_structural_pipes(bist, sched)
        expected = sum(
            1
            << max(
                len(bist.cbit_chains[c])
                for c in pipe.tested_clusters
                if c in bist.cbit_chains
            )
            for pipe in sched.pipes
        )
        assert res.n_cycles == expected

    def test_requires_dual_mode_netlist(self, setup):
        s27, report, _, sched = setup
        plain = insert_test_hardware(s27, report.partition)
        with pytest.raises(SimulationError, match="dual-mode"):
            run_structural_pipes(plain, sched)

    def test_unknown_fault_site_rejected(self, setup):
        _, _, bist, sched = setup
        with pytest.raises(SimulationError, match="ghost"):
            run_structural_pipes(bist, sched, faults=[StuckAtFault("ghost", 0)])


class TestDualModeNetlist:
    def test_normal_mode_unaffected_by_controls(self, setup):
        s27, _, bist, _ = setup
        from repro.sim import SequentialSimulator, random_input_sequence

        seq = random_input_sequence(s27, 15, seed=2)
        orig = SequentialSimulator(s27).run(seq)
        for psa in (0, 1):
            drive = [
                dict(
                    x,
                    test_mode=0,
                    scan_en=0,
                    scan_in=0,
                    **{
                        f"psa_en_{cid}": psa
                        for cid in bist.cbit_chains
                    },
                )
                for x in seq
            ]
            got = SequentialSimulator(bist.netlist).run(drive)
            assert [t[: len(orig[0])] for t in got] == orig
