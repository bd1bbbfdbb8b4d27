"""Sequential (clocked) simulation."""

import pytest

from repro.errors import SimulationError
from repro.netlist import GateType, Netlist
from repro.sim import SequentialSimulator, random_input_sequence


@pytest.fixture
def toggler():
    """q toggles every clock: q' = NOT(q)."""
    nl = Netlist("toggler")
    nl.add_input("en")  # unused but circuits need a PI
    nl.add_gate("nq", GateType.NOT, ["q"])
    nl.add_dff("q", "nq")
    nl.add_gate("obs", GateType.BUF, ["q"])
    nl.add_output("obs")
    nl.validate()
    return nl


class TestStep:
    def test_toggle_behaviour(self, toggler):
        sim = SequentialSimulator(toggler)
        outs = [sim.step({"en": 0})["obs"] for _ in range(4)]
        assert outs == [0, 1, 0, 1]

    def test_reset_state(self, toggler):
        sim = SequentialSimulator(toggler)
        sim.reset({"q": 1})
        assert sim.step({"en": 0})["obs"] == 1

    def test_reset_unknown_register_rejected(self, toggler):
        sim = SequentialSimulator(toggler)
        with pytest.raises(SimulationError):
            sim.reset({"nq": 1})

    def test_parallel_runs(self, toggler):
        sim = SequentialSimulator(toggler)
        sim.reset({"q": 0b01})  # run0 starts at 1, run1 at 0
        values = sim.step({"en": 0}, n_patterns=2)
        assert values["obs"] == 0b01


class TestRun:
    def test_run_returns_po_trace(self, s27):
        sim = SequentialSimulator(s27)
        seq = random_input_sequence(s27, 10, seed=1)
        trace = sim.run(seq)
        assert len(trace) == 10
        assert all(len(t) == 1 for t in trace)  # one PO

    def test_run_resets_with_state(self, toggler):
        sim = SequentialSimulator(toggler)
        t1 = sim.run([{"en": 0}] * 3, state={"q": 1})
        t2 = sim.run([{"en": 0}] * 3, state={"q": 1})
        assert t1 == t2 == [(1,), (0,), (1,)]

    def test_s27_state_evolves(self, s27):
        sim = SequentialSimulator(s27)
        seq = [{pi: 1 for pi in s27.inputs}] * 5
        sim.run(seq)
        assert set(sim.state) == {"G5", "G6", "G7"}


class TestHelpers:
    def test_random_sequence_deterministic(self, s27):
        a = random_input_sequence(s27, 5, seed=9)
        b = random_input_sequence(s27, 5, seed=9)
        assert a == b
