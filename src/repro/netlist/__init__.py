"""Gate-level netlist substrate: cells, netlists, ISCAS89 I/O, area model."""

from .gates import (
    GateType,
    DFF_AREA_UNITS,
    gate_area_units,
    parse_gate_type,
)
from .cells import Cell
from .netlist import Netlist, CircuitStats
from .bench import parse_bench, parse_bench_file, write_bench, write_bench_file
from .area import (
    ACELL_AREA_UNITS,
    ACELL_RETIMED_EXTRA_UNITS,
    ACELL_MUXED_AREA_UNITS,
    ACELL_FACTOR,
    ACELL_RETIMED_FACTOR,
    ACELL_MUXED_FACTOR,
    circuit_area_units,
)
from .transform import fresh_signal_name
from .verilog import write_verilog, write_verilog_file

__all__ = [
    "GateType",
    "DFF_AREA_UNITS",
    "gate_area_units",
    "parse_gate_type",
    "Cell",
    "Netlist",
    "CircuitStats",
    "parse_bench",
    "parse_bench_file",
    "write_bench",
    "write_bench_file",
    "ACELL_AREA_UNITS",
    "ACELL_RETIMED_EXTRA_UNITS",
    "ACELL_MUXED_AREA_UNITS",
    "ACELL_FACTOR",
    "ACELL_RETIMED_FACTOR",
    "ACELL_MUXED_FACTOR",
    "circuit_area_units",
    "fresh_signal_name",
    "write_verilog",
    "write_verilog_file",
]
