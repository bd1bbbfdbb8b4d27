"""Property-based tests: random netlists round-trip and stay consistent."""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.netlist import GateType, Netlist, parse_bench, write_bench
from repro.netlist.gates import GATE_EVALUATORS

GATE_CHOICES = [
    GateType.AND,
    GateType.NAND,
    GateType.OR,
    GateType.NOR,
    GateType.XOR,
    GateType.NOT,
    GateType.BUF,
]


@st.composite
def random_netlists(draw):
    """Random valid synchronous netlists built in topological order."""
    n_inputs = draw(st.integers(min_value=1, max_value=4))
    n_cells = draw(st.integers(min_value=1, max_value=25))
    nl = Netlist("random")
    signals = []
    for i in range(n_inputs):
        nl.add_input(f"pi{i}")
        signals.append(f"pi{i}")
    for i in range(n_cells):
        name = f"c{i}"
        if draw(st.booleans()) and i > 0 and draw(st.integers(0, 3)) == 0:
            src = signals[draw(st.integers(0, len(signals) - 1))]
            nl.add_dff(name, src)
        else:
            gtype = draw(st.sampled_from(GATE_CHOICES))
            n_pins = 1 if gtype in (GateType.NOT, GateType.BUF) else draw(
                st.integers(2, 4)
            )
            pins = [
                signals[draw(st.integers(0, len(signals) - 1))]
                for _ in range(n_pins)
            ]
            nl.add_gate(name, gtype, pins)
        signals.append(name)
    nl.add_output(signals[-1])
    return nl


@given(random_netlists())
@settings(max_examples=60, deadline=None)
def test_generated_netlists_validate(nl):
    nl.validate()


@given(random_netlists())
@settings(max_examples=60, deadline=None)
def test_bench_round_trip(nl):
    again = parse_bench(write_bench(nl), name=nl.name)
    assert {str(c) for c in again.cells()} == {str(c) for c in nl.cells()}
    assert again.inputs == nl.inputs
    assert again.outputs == nl.outputs


@given(random_netlists())
@settings(max_examples=60, deadline=None)
def test_area_is_sum_of_cells(nl):
    assert nl.area_units() == sum(c.area_units for c in nl.cells())


@given(random_netlists())
@settings(max_examples=60, deadline=None)
def test_topological_order_sound(nl):
    order = nl.topological_comb_order()
    pos = {c.output: i for i, c in enumerate(order)}
    for cell in order:
        for sig in cell.inputs:
            if sig in pos:
                assert pos[sig] < pos[cell.output]


@given(
    st.sampled_from([g for g in GATE_CHOICES if g not in (GateType.NOT, GateType.BUF)]),
    st.lists(st.integers(min_value=0, max_value=255), min_size=2, max_size=4),
)
def test_gate_eval_matches_bitwise_definition(gtype, words):
    """Parallel evaluation agrees with per-bit scalar evaluation."""
    out = GATE_EVALUATORS[gtype](words, 255)
    for bit in range(8):
        scalar = GATE_EVALUATORS[gtype]([(w >> bit) & 1 for w in words], 1)
        assert (out >> bit) & 1 == scalar
