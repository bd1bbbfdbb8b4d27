"""Merced configuration (the paper's Section 4.1 parameter set).

Defaults follow the values the authors settled on: ``b = 1``,
``min_visit = 20``, ``α = 4``, ``Δ = 0.01``, ``β = 50``; the CUT input
bound ``l_k`` defaults to 16 (CBIT type d4).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace
from typing import Optional

from .errors import ConfigError

__all__ = ["MercedConfig", "DEFAULT_CONFIG"]


@dataclass(frozen=True)
class MercedConfig:
    """All tunables of the Merced BIST compiler.

    Attributes:
        lk: input-size bound ``l_k`` per CUT/CBIT (Eq. 5). Testing time is
            ``O(2^lk)`` clock cycles per test pipe.
        delta: flow increment ``Δ`` injected per shortest-path net
            (Table 3, STEP 3.3.1).
        alpha: congestion exponent ``α`` in
            ``d(e) = exp(α · flow(e)/cap(e))`` (STEP 3.3.2).
        cap: uniform net capacity ``b`` (STEP 1.1).
        min_visit: fairness threshold — saturation continues until every
            node has been a Dijkstra source at least this many times.
        beta: SCC cut-budget multiplier ``β`` of Eq. 6
            (``χ(λ) ≤ β · f(λ)``); ``β = 50`` effectively un-constrains
            partitioning, smaller values trade cuts for testing time.
        seed: RNG seed for the stochastic source selection; fixed by
            default so runs are reproducible.
        max_sources: optional cap on the total number of Dijkstra source
            injections during ``Saturate_Network``.  The paper runs
            ``min_visit × |V|`` injections (on a 1996 workstation, in C);
            in Python that is prohibitive beyond a few thousand nodes, so
            large-circuit benches cap the sample while keeping the source
            selection fair (sampling without replacement across rounds).
            ``None`` (default) is the paper-faithful behaviour.
        merge_clusters: run the greedy ``Assign_CBIT`` merging pass
            (Table 8). Disabling it is the paper's implicit baseline of one
            CBIT per raw cluster (used by our ablation benches).
        optimize: post-pass partition refinement tier
            (:mod:`repro.optimize`): ``None`` (default) keeps the
            one-shot greedy result, ``"fast"`` runs the deterministic
            timing-aware hill climb, ``"anneal"`` the simulated-
            annealing refinement.  Either mode only ever *improves* the
            CBIT catalogue cost Σ (Eq. 4) — the greedy partition is the
            fallback when no legal improving state is found.
        optimize_budget: approximate wall-clock budget in seconds for
            the refinement pass.  The budget is *advisory*: it is
            converted into a deterministic move-schedule length from
            the circuit size alone, so results are byte-identical for a
            given ``(netlist, config)`` on any host and at any
            ``--jobs`` — a slower machine simply overshoots the wall
            clock instead of changing the answer.
    """

    lk: int = 16
    delta: float = 0.01
    alpha: float = 4.0
    cap: float = 1.0
    min_visit: int = 20
    beta: int = 50
    seed: Optional[int] = 1996
    max_sources: Optional[int] = None
    merge_clusters: bool = True
    optimize: Optional[str] = None
    optimize_budget: float = 5.0

    def __post_init__(self) -> None:
        # Service submissions are JSON, so a field can arrive as any JSON
        # type: 3.5 for l_k, "no" (truthy) for merge_clusters, true for a
        # count.  bool is an int subclass, so it is named explicitly.
        for name in ("lk", "min_visit", "beta"):
            _check_type(name, getattr(self, name), (int,))
        for name in ("seed", "max_sources"):
            if getattr(self, name) is not None:
                _check_type(name, getattr(self, name), (int,))
        # NaN passes every ordered comparison below (and inf the lower
        # bounds), and an int past the float range raises OverflowError
        # wherever the flow meets it, so each of these must convert to
        # a finite float.
        for name in ("delta", "alpha", "cap", "optimize_budget"):
            value = getattr(self, name)
            _check_type(name, value, (int, float))
            try:
                finite = math.isfinite(value)
            except OverflowError:
                finite = False
            if not finite:
                raise ConfigError(
                    f"{name} must be a finite float, got {value!r:.40}"
                )
        if not isinstance(self.merge_clusters, bool):
            raise ConfigError(
                f"merge_clusters must be a bool, got {self.merge_clusters!r}"
            )
        if self.lk < 1:
            raise ConfigError(f"lk must be positive, got {self.lk}")
        if self.delta <= 0:
            raise ConfigError(f"delta must be positive, got {self.delta}")
        if self.alpha <= 0:
            raise ConfigError(f"alpha must be positive, got {self.alpha}")
        if self.cap <= 0:
            raise ConfigError(f"cap must be positive, got {self.cap}")
        if self.min_visit < 1:
            raise ConfigError(
                f"min_visit must be at least 1, got {self.min_visit}"
            )
        if self.beta < 1:
            raise ConfigError(f"beta must be an integer >= 1, got {self.beta}")
        if self.max_sources is not None and self.max_sources < 1:
            raise ConfigError(
                f"max_sources must be positive or None, got {self.max_sources}"
            )
        if self.optimize not in (None, "fast", "anneal"):
            raise ConfigError(
                f"optimize must be None, 'fast' or 'anneal', "
                f"got {self.optimize!r}"
            )
        if self.optimize_budget <= 0:
            raise ConfigError(
                f"optimize_budget must be positive, got {self.optimize_budget}"
            )

    def with_lk(self, lk: int) -> "MercedConfig":
        """Copy of this configuration with a different input bound."""
        return replace(self, lk=lk)

    def with_seed(self, seed: Optional[int]) -> "MercedConfig":
        return replace(self, seed=seed)

    def with_beta(self, beta: int) -> "MercedConfig":
        return replace(self, beta=beta)

    def with_optimize(
        self, optimize: Optional[str], budget: Optional[float] = None
    ) -> "MercedConfig":
        """Copy with a refinement tier (and optionally its budget)."""
        if budget is None:
            return replace(self, optimize=optimize)
        return replace(self, optimize=optimize, optimize_budget=budget)

    def canonical_dict(self) -> dict:
        """Every field as a stable ``{name: value}`` dict (sorted keys).

        This is the configuration's *identity* for purposes of the sweep
        result cache (:mod:`repro.exec.hashing`): two configs with equal
        canonical dicts must produce bit-identical Merced results on the
        same netlist and code version.  Adding a field to this dataclass
        automatically widens the identity (and invalidates old cache
        entries via the changed code hash).
        """
        return dict(sorted(asdict(self).items()))


def _check_type(name: str, value: object, types: tuple) -> None:
    """Raise :class:`ConfigError` unless ``value`` is one of ``types``."""
    if isinstance(value, bool) or not isinstance(value, types):
        expected = " or ".join(t.__name__ for t in types)
        raise ConfigError(f"{name} must be {expected}, got {value!r}")


#: The paper's published parameter set.
DEFAULT_CONFIG = MercedConfig()
