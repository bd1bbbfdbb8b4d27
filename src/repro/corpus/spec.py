"""Corpus circuit specification: every generator knob in one record.

A :class:`CorpusSpec` fully determines one synthetic circuit — the
generator in :mod:`repro.corpus.topology` consumes **one**
``random.Random(spec.seed)`` stream and nothing else, so the same spec
produces byte-identical ``.bench`` output on every platform and Python
version (the stdlib Mersenne Twister is platform-independent).

Unlike :class:`~repro.circuits.profiles.CircuitProfile` (which pins the
paper's Table 9 statistics *exactly*), a spec constrains the circuit's
**shape**: how big, how register-dense, how deep its feedback SCCs are,
and how skewed its fanout distribution is.  Targets are honoured
exactly where the algorithms are sensitive to them (gate, inverter and
register counts; registers-on-SCC) and distributionally elsewhere
(fanout, stage balance).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import Dict, Optional

from ..errors import NetlistError

__all__ = ["CorpusSpec"]


@dataclass(frozen=True)
class CorpusSpec:
    """One corpus circuit, fully determined by ``(knobs, seed)``.

    Attributes:
        name: netlist name (also the registry key for named specs).
        seed: the single RNG seed; all randomness in the generator flows
            from ``random.Random(seed)``, threaded explicitly through
            every helper (KRN002).
        n_gates: non-inverter combinational gate count — hit exactly.
        register_density: DFFs per gate; ``n_dffs`` rounds from it.
        scc_register_fraction: fraction of DFFs placed on feedback
            rings (the rest are feed-forward pipeline registers).
        scc_depth: combinational gates per ring edge — the logic depth
            *inside* each SCC, so SCC node count is
            ``ring_size × (1 + scc_depth)``.
        max_ring_size: registers per feedback ring (SCC) upper bound.
        chord_prob: probability a ring-chain gate also reads an earlier
            chain gate of the *same* ring — adds shortcut cycles with
            fewer registers, exercising the solver's drop path.
        scc_coupling: probability a ring-chain gate reads surrounding
            same-stage logic, letting an SCC absorb neighbouring gates
            (and occasionally fuse with another ring) the way real
            control loops do.  Keep 0 for circuits that must retime in
            one feasible round (e.g. the trend bench).
        inverter_fraction: NOT gates as a fraction of ``n_gates``.
        fanout_hub_fraction: fraction of signals promoted to "hubs".
        fanout_hub_bias: probability a gate input is drawn from the hub
            pool instead of locally — together with the fraction this
            shapes the fanout tail (0 → near-uniform, 0.3 with few hubs
            → strongly heavy-tailed, like clock-enable/control nets).
        recency_bias: probability a non-hub input pick walks back
            geometrically from the newest signal (local clustering).
        fanin3_prob: probability a gate gets 3 base inputs instead of 2.
        max_fanin: hard cap on gate fan-in, including post-hoc
            absorption of unread primary inputs.  Must stay well below
            the default ``l_k`` so BUD001 can never fire.
        n_inputs: primary inputs; default scales as ``~4·log2(gates)``.
        n_outputs: minimum primary outputs; dangling signals become
            additional POs (a NET001/GRF002 validity filter).
        n_stages: pipeline depth; default scales with circuit size.
    """

    name: str
    seed: int
    n_gates: int
    register_density: float = 0.05
    scc_register_fraction: float = 0.25
    scc_depth: int = 2
    max_ring_size: int = 4
    chord_prob: float = 0.0
    scc_coupling: float = 0.0
    inverter_fraction: float = 0.08
    fanout_hub_fraction: float = 0.01
    fanout_hub_bias: float = 0.10
    recency_bias: float = 0.6
    fanin3_prob: float = 0.15
    max_fanin: int = 5
    n_inputs: Optional[int] = None
    n_outputs: Optional[int] = None
    n_stages: Optional[int] = None

    def __post_init__(self):
        if self.n_gates < 16:
            raise NetlistError("CorpusSpec needs n_gates >= 16")
        if self.n_gates > 1_000_000:
            raise NetlistError("CorpusSpec caps n_gates at 1e6")
        for knob in (
            "register_density",
            "scc_register_fraction",
            "chord_prob",
            "scc_coupling",
            "inverter_fraction",
            "fanout_hub_fraction",
            "fanout_hub_bias",
            "recency_bias",
            "fanin3_prob",
        ):
            v = getattr(self, knob)
            if not 0.0 <= v <= 1.0:
                raise NetlistError(f"CorpusSpec.{knob}={v!r} not in [0, 1]")
        if self.register_density > 0.5:
            raise NetlistError("register_density above 0.5 is not a circuit")
        if not 1 <= self.scc_depth <= 8:
            raise NetlistError("scc_depth must be in 1..8")
        if not 1 <= self.max_ring_size <= 16:
            raise NetlistError("max_ring_size must be in 1..16")
        if not 3 <= self.max_fanin <= 6:
            raise NetlistError("max_fanin must be in 3..6")

    # -- derived counts -------------------------------------------------
    @property
    def n_dffs(self) -> int:
        """Total registers implied by ``register_density``."""
        return max(1, round(self.n_gates * self.register_density))

    @property
    def n_scc_dffs(self) -> int:
        """Registers on feedback rings (never exceeds the chain budget)."""
        want = round(self.n_dffs * self.scc_register_fraction)
        # every ring register owns one chain edge of scc_depth gates;
        # chains must fit inside the gate budget with room for plain
        # gates in every stage.
        cap = max(0, (self.n_gates - 2 * self.resolved_stages))
        return min(want, cap // max(1, self.scc_depth))

    @property
    def n_inverters(self) -> int:
        return round(self.n_gates * self.inverter_fraction)

    @property
    def resolved_inputs(self) -> int:
        if self.n_inputs is not None:
            return self.n_inputs
        return max(4, min(96, round(4 * math.log2(self.n_gates))))

    @property
    def resolved_outputs(self) -> int:
        if self.n_outputs is not None:
            return self.n_outputs
        return max(2, min(128, self.n_gates // 64))

    @property
    def resolved_stages(self) -> int:
        if self.n_stages is not None:
            return max(2, self.n_stages)
        return max(2, min(12, 2 + self.n_gates // 2000))

    # -- serialization --------------------------------------------------
    def as_dict(self) -> Dict[str, object]:
        """JSON-friendly dict of the *explicit* fields (manifest form)."""
        out: Dict[str, object] = {}
        for f in fields(self):
            out[f.name] = getattr(self, f.name)
        return out

    def with_(self, **overrides) -> "CorpusSpec":
        """A copy with ``overrides`` applied (shrinking/fuzz helper)."""
        return replace(self, **overrides)
