"""PPET: pattern spaces, signatures, scan, test-pipe schedule, sessions."""

from .patterns import (
    MAX_EXHAUSTIVE_INPUTS,
    exhaustive_words,
    is_exhaustive,
    lfsr_order_words,
)
from .signature import SignatureVerdict, compact_signature, response_words_to_stream
from .scan import ScanChain, build_scan_chain
from .schedule import TestPipe, TestSchedule, observer_map, schedule_pipes
from .random_test import (
    DetectabilityProfile,
    detectability_profile,
    expected_random_test_length,
    fault_detectability,
    random_coverage_curve,
)
from .session import CUTResult, PPETSession, SessionReport, extract_cut
from .structural import StructuralSelfTest, StructuralSignatures, run_structural_pipes

__all__ = [
    "MAX_EXHAUSTIVE_INPUTS",
    "exhaustive_words",
    "is_exhaustive",
    "lfsr_order_words",
    "SignatureVerdict",
    "compact_signature",
    "response_words_to_stream",
    "ScanChain",
    "build_scan_chain",
    "TestPipe",
    "TestSchedule",
    "observer_map",
    "schedule_pipes",
    "DetectabilityProfile",
    "detectability_profile",
    "expected_random_test_length",
    "fault_detectability",
    "random_coverage_curve",
    "CUTResult",
    "PPETSession",
    "SessionReport",
    "extract_cut",
    "StructuralSelfTest",
    "StructuralSignatures",
    "run_structural_pipes",
]
