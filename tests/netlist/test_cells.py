"""Cell record invariants."""

import copy
import pickle
from dataclasses import FrozenInstanceError

import pytest

from repro.errors import NetlistError
from repro.netlist import Cell, GateType, Netlist


def test_cell_is_frozen():
    cell = Cell("g", GateType.NAND, ("a", "b"))
    with pytest.raises(FrozenInstanceError):
        cell.output = "h"


def test_inputs_normalized_to_tuple():
    cell = Cell("g", GateType.NAND, ["a", "b"])
    assert cell.inputs == ("a", "b")


def test_empty_name_rejected():
    with pytest.raises(ValueError):
        Cell("", GateType.NOT, ("a",))


def test_fanin_checked_at_construction():
    with pytest.raises(NetlistError):
        Cell("g", GateType.NOT, ("a", "b"))
    with pytest.raises(NetlistError):
        Cell("g", GateType.AND, ("a",))


def test_is_dff():
    assert Cell("q", GateType.DFF, ("d",)).is_dff
    assert not Cell("g", GateType.NOT, ("d",)).is_dff


def test_area_units():
    assert Cell("g", GateType.NAND, ("a", "b", "c")).area_units == 3
    assert Cell("q", GateType.DFF, ("d",)).area_units == 10


def test_with_inputs_creates_copy():
    cell = Cell("g", GateType.NAND, ("a", "b"))
    new = cell.with_inputs(("x", "y"))
    assert new.inputs == ("x", "y")
    assert cell.inputs == ("a", "b")
    assert new.output == "g"
    assert new.gtype is GateType.NAND


def test_equality_and_hash():
    a = Cell("g", GateType.NAND, ("a", "b"))
    b = Cell("g", GateType.NAND, ("a", "b"))
    assert a == b
    assert hash(a) == hash(b)


def test_cell_has_slots_not_a_dict():
    cell = Cell("g", GateType.NAND, ("a", "b"))
    assert not hasattr(cell, "__dict__")
    with pytest.raises(FrozenInstanceError):
        cell.extra = 1


@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_cell_and_netlist_pickle_round_trip(protocol):
    cell = Cell("g", GateType.NAND, ("a", "b"))
    back = pickle.loads(pickle.dumps(cell, protocol))
    assert back == cell and hash(back) == hash(cell)
    assert back.gtype is GateType.NAND

    nl = Netlist("toy")
    nl.add_input("a")
    nl.add_input("b")
    nl.add_cell(cell)
    nl.add_dff("q", "g")
    nl.add_output("q")
    dup = pickle.loads(pickle.dumps(nl, protocol))
    assert dup.name == "toy"
    assert (dup.inputs, dup.outputs) == (nl.inputs, nl.outputs)
    assert list(dup.cells()) == list(nl.cells())
    dup.validate()


def test_deepcopy_gives_an_equal_cell():
    cell = Cell("g", GateType.NAND, ("a", "b"))
    dup = copy.deepcopy(cell)
    assert dup == cell and hash(dup) == hash(cell)
