"""CBIT hardware models: A_CELLs, LFSR/MISR registers, the Table 1 catalogue."""

from .acell import ACellVariant, acell_area_dff
from .assemble import CBITAssignment, CBITPlan, assemble_cbits
from .insert import BISTCircuit, insert_test_hardware
from .lfsr import LFSR
from .misr import MISR
from .polynomials import (
    MAXIMAL_LFSR_TAPS,
    feedback_taps,
    is_irreducible,
    is_primitive,
    poly_degree,
    primitive_polynomial,
)
from .types import (
    CBITType,
    PAPER_CBIT_TYPES,
    cbit_cost_for_inputs,
    estimate_cbit_area_dff,
    smallest_type_for,
)

__all__ = [
    "ACellVariant",
    "acell_area_dff",
    "CBITAssignment",
    "CBITPlan",
    "assemble_cbits",
    "BISTCircuit",
    "insert_test_hardware",
    "LFSR",
    "MISR",
    "MAXIMAL_LFSR_TAPS",
    "feedback_taps",
    "is_irreducible",
    "is_primitive",
    "poly_degree",
    "primitive_polynomial",
    "CBITType",
    "PAPER_CBIT_TYPES",
    "cbit_cost_for_inputs",
    "estimate_cbit_area_dff",
    "smallest_type_for",
]
