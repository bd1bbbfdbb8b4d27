"""Random self-test efficiency analysis (paper ref [12]).

Sastry/Majumdar's test-efficiency work — cited by the paper as the
motivation for pseudo-exhaustive testing — studies how stuck-at coverage
grows with random test length.  This module measures that curve on our
circuit segments and contrasts it with the pseudo-exhaustive guarantee:

* a random-pattern session of length ``L`` detects fault ``f`` with
  probability ``1 − (1 − d_f)^L`` where ``d_f`` is the fault's
  *detectability* (fraction of the input space detecting it);
* hard faults (tiny ``d_f``) dominate the tail: random BIST needs many
  times ``2^ι`` patterns to catch them with confidence, while the
  pseudo-exhaustive session catches every non-redundant fault in exactly
  ``2^ι`` — the paper's Section 1 argument.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import SimulationError
from ..faults.model import StuckAtFault, fault_masks
from ..netlist.netlist import Netlist
from ..sim.logicsim import CombSimulator
from .patterns import exhaustive_words

__all__ = [
    "fault_detectability",
    "DetectabilityProfile",
    "detectability_profile",
    "random_coverage_curve",
    "expected_random_test_length",
]


def fault_detectability(
    netlist: Netlist,
    fault: StuckAtFault,
    simulator: Optional[CombSimulator] = None,
) -> float:
    """Exact detectability ``d_f``: detecting patterns / 2^ι.

    Evaluates the full exhaustive space (the circuit must be within the
    in-memory cap of :func:`repro.ppet.patterns.exhaustive_words`) and
    observes the primary outputs.
    """
    sim = simulator or CombSimulator(netlist)
    signals = list(sim.pseudo_inputs)
    words, n = exhaustive_words(signals)
    good = sim.run(words, n)
    bad = sim.run(words, n, faults=fault_masks(fault, n))
    diff = 0
    for o in netlist.outputs:
        diff |= good[o] ^ bad[o]
    return bin(diff).count("1") / n


@dataclass
class DetectabilityProfile:
    """Detectability statistics of a fault universe on one segment."""

    detectabilities: Dict[StuckAtFault, float]

    @property
    def redundant(self) -> List[StuckAtFault]:
        return [f for f, d in self.detectabilities.items() if d == 0.0]

    @property
    def hardest(self) -> Tuple[Optional[StuckAtFault], float]:
        """The non-redundant fault with minimum detectability."""
        best: Tuple[Optional[StuckAtFault], float] = (None, 1.0)
        for f, d in self.detectabilities.items():
            if 0.0 < d < best[1]:
                best = (f, d)
        return best

    def expected_coverage(self, length: int) -> float:
        """Mean detection probability over non-redundant faults at ``L``."""
        live = [d for d in self.detectabilities.values() if d > 0.0]
        if not live:
            return 1.0
        return sum(1.0 - (1.0 - d) ** length for d in live) / len(live)


def detectability_profile(
    netlist: Netlist, faults: Sequence[StuckAtFault]
) -> DetectabilityProfile:
    """Exact per-fault detectabilities over the exhaustive space."""
    sim = CombSimulator(netlist)
    return DetectabilityProfile(
        detectabilities={
            f: fault_detectability(netlist, f, simulator=sim) for f in faults
        }
    )


def random_coverage_curve(
    netlist: Netlist,
    faults: Sequence[StuckAtFault],
    lengths: Sequence[int],
    seed: Optional[int] = 0,
) -> List[Tuple[int, float]]:
    """Measured coverage after ``L`` uniform random patterns, per ``L``.

    One growing random session is simulated (prefix property: the
    coverage at each length reuses the same pattern stream), mirroring a
    random-BIST run, and the primary outputs are observed.
    """
    if not lengths:
        return []
    rng = random.Random(seed)
    sim = CombSimulator(netlist)
    observe = tuple(netlist.outputs)
    total = max(lengths)
    words = {pi: rng.getrandbits(total) for pi in sim.pseudo_inputs}
    good = sim.run(words, total)
    good_obs = {o: good[o] for o in observe}
    first_detect: Dict[StuckAtFault, Optional[int]] = {}
    for fault in faults:
        bad = sim.run(words, total, faults=fault_masks(fault, total))
        diff = 0
        for o in observe:
            diff |= good_obs[o] ^ bad[o]
        first_detect[fault] = (
            (diff & -diff).bit_length() - 1 if diff else None
        )
    curve: List[Tuple[int, float]] = []
    n_faults = len(faults) or 1
    for L in sorted(lengths):
        covered = sum(
            1 for t in first_detect.values() if t is not None and t < L
        )
        curve.append((L, covered / n_faults))
    return curve


def expected_random_test_length(
    detectability: float, confidence: float = 0.99
) -> float:
    """Patterns needed to detect a ``d_f`` fault with given confidence.

    Solves ``1 − (1 − d)^L ≥ c``; the classic random-BIST sizing formula.
    """
    import math

    if not 0.0 < detectability <= 1.0:
        raise SimulationError("detectability must be in (0, 1]")
    if not 0.0 < confidence < 1.0:
        raise SimulationError("confidence must be in (0, 1)")
    if detectability == 1.0:
        return 1.0
    return math.log(1.0 - confidence) / math.log(1.0 - detectability)
