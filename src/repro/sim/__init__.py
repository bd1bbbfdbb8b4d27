"""Logic simulation substrate: levelization, parallel-pattern, sequential."""

from .bitparallel import (
    WORD_BITS,
    block_ones,
    chunked,
    extract_block,
    fault_block_masks,
    replicate_word,
)
from .levelize import LevelizedCircuit, levelize
from .logicsim import CombSimulator, ScalarSimulator, pack_patterns
from .seqsim import SequentialSimulator, random_input_sequence

__all__ = [
    "WORD_BITS",
    "block_ones",
    "chunked",
    "extract_block",
    "fault_block_masks",
    "replicate_word",
    "LevelizedCircuit",
    "levelize",
    "CombSimulator",
    "ScalarSimulator",
    "pack_patterns",
    "SequentialSimulator",
    "random_input_sequence",
]
