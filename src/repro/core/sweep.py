"""Parameter sweeps over the Merced compiler.

Programmatic versions of the studies the paper discusses narratively:
the ``l_k`` testing-time/area frontier (§2.4, Figure 4), the β cut-budget
trade-off (§4.1), and seed stability of the randomized flow process
(§3.3's variance discussion).  Each sweep returns plain row dataclasses
that the report renderer can tabulate.

Every sweep executes through a :class:`repro.exec.SweepFarm`: pass one
(e.g. ``SweepFarm(jobs=4, cache=ResultCache("~/.merced-cache"))``) to
shard the grid across worker processes and reuse cached points, or pass
nothing to get the default inline farm — same code path, bit-identical
results, no processes spawned.  Points that fail (infeasible ``l_k``,
worker death, timeout) come back as degraded :class:`SweepErrorRow`
entries instead of sinking the whole sweep.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..config import MercedConfig
from ..exec.pool import SweepFarm
from ..exec.task import SweepPoint, TaskResult
from ..netlist.bench import write_bench
from ..netlist.netlist import Netlist

__all__ = [
    "SweepErrorRow",
    "LkSweepRow",
    "sweep_lk",
    "lk_row_from_result",
    "BetaSweepRow",
    "sweep_beta",
    "beta_row_from_result",
    "SeedStability",
    "seed_stability",
    "stability_from_results",
]


@dataclass(frozen=True)
class SweepErrorRow:
    """Degraded stand-in for a sweep point that failed permanently.

    Attributes:
        circuit: benchmark the point belonged to.
        kind: the task kind that failed (``"merced"``, ``"beta"``, ...).
        params: the identifying sweep coordinates (``{"lk": 16}``,
            ``{"beta": 5}``, ``{"seed": 3}``).
        error: stringified final exception.
        error_type: exception class name (``"InfeasiblePartitionError"``,
            ``"SweepTimeoutError"``, ``"BrokenWorker"``, ...).
        attempts: executions consumed before giving up.
        stage: pipeline stage the failure unwound from (``"lint"``,
            ``"make_group"``, ...), or ``None`` when unattributable
            (e.g. a worker crash).
        diagnostics: lint findings attached to the failure
            (:meth:`repro.analysis.Diagnostic.as_dict` payloads) —
            what the circuit looked like to the static analyzer when
            the point died.  Empty when no lint pass could run.
    """

    circuit: str
    kind: str
    params: Tuple[Tuple[str, object], ...]
    error: str
    error_type: str
    attempts: int
    stage: Optional[str] = None
    diagnostics: Tuple[Dict[str, str], ...] = ()

    @property
    def ok(self) -> bool:
        """Always ``False`` — lets callers filter mixed row lists."""
        return False

    def param_dict(self) -> Dict[str, object]:
        """The sweep coordinates as a plain dict."""
        return dict(self.params)

    @property
    def lk(self) -> Optional[int]:
        """The point's ``l_k`` coordinate, when it has one."""
        return self.param_dict().get("lk")  # type: ignore[return-value]

    @property
    def beta(self) -> Optional[int]:
        """The point's β coordinate, when it has one."""
        return self.param_dict().get("beta")  # type: ignore[return-value]

    @property
    def seed(self) -> Optional[int]:
        """The point's seed coordinate, when it has one."""
        return self.param_dict().get("seed")  # type: ignore[return-value]


def _error_row(result: TaskResult, **params) -> SweepErrorRow:
    return SweepErrorRow(
        circuit=result.point.circuit,
        kind=result.point.kind,
        params=tuple(sorted(params.items())),
        error=result.error or "",
        error_type=result.error_type or "Error",
        attempts=result.attempts,
        stage=result.stage,
        diagnostics=tuple(result.diagnostics or ()),
    )


@dataclass(frozen=True)
class LkSweepRow:
    """One point on the l_k frontier."""

    lk: int
    n_partitions: int
    n_cut_nets: int
    n_cut_nets_on_scc: int
    cost_dff: float
    pct_with_retiming: float
    pct_without_retiming: float

    @property
    def ok(self) -> bool:
        """Always ``True`` — the degraded counterpart is ``SweepErrorRow``."""
        return True

    @property
    def testing_time(self) -> int:
        return 1 << self.lk


def sweep_lk(
    netlist: Netlist,
    lks: Sequence[int],
    config: Optional[MercedConfig] = None,
    farm: Optional[SweepFarm] = None,
) -> List[Union[LkSweepRow, SweepErrorRow]]:
    """Run Merced at each ``l_k`` and collect the frontier.

    With a parallel ``farm`` the points run concurrently; results are
    returned in ``lks`` order regardless of completion order, and a
    failing point yields a :class:`SweepErrorRow` in its slot.
    """
    base = config or MercedConfig()
    bench = write_bench(netlist)
    points = [
        SweepPoint("merced", netlist.name, bench=bench, config=base.with_lk(lk))
        for lk in lks
    ]
    results = (farm or SweepFarm()).map(points)
    return [lk_row_from_result(lk, r) for lk, r in zip(lks, results)]


def lk_row_from_result(
    lk: int, result: TaskResult
) -> Union[LkSweepRow, SweepErrorRow]:
    """Convert one ``merced``-kind :class:`TaskResult` into a frontier row."""
    if not result.ok:
        return _error_row(result, lk=lk)
    v = result.value
    return LkSweepRow(
        lk=lk,
        n_partitions=v["n_partitions"],
        n_cut_nets=v["n_cut_nets"],
        n_cut_nets_on_scc=v["n_cut_nets_on_scc"],
        cost_dff=v["cost_dff"],
        pct_with_retiming=v["pct_with_retiming"],
        pct_without_retiming=v["pct_without_retiming"],
    )


@dataclass(frozen=True)
class BetaSweepRow:
    """One point on the Eq. 6 budget trade-off."""

    beta: int
    n_cut_nets: int
    n_cut_nets_on_scc: int
    max_input_count: int
    n_oversized: int  # clusters exceeding l_k (welded SCCs)

    @property
    def ok(self) -> bool:
        """Always ``True`` — the degraded counterpart is ``SweepErrorRow``."""
        return True

    @property
    def feasible(self) -> bool:
        return self.n_oversized == 0


def sweep_beta(
    netlist: Netlist,
    betas: Sequence[int],
    config: Optional[MercedConfig] = None,
    farm: Optional[SweepFarm] = None,
) -> List[Union[BetaSweepRow, SweepErrorRow]]:
    """Partition at each β without raising on welded (oversized) SCCs."""
    base = config or MercedConfig()
    bench = write_bench(netlist)
    points = [
        SweepPoint("beta", netlist.name, bench=bench, config=base.with_beta(beta))
        for beta in betas
    ]
    results = (farm or SweepFarm()).map(points)
    return [beta_row_from_result(b, r) for b, r in zip(betas, results)]


def beta_row_from_result(
    beta: int, result: TaskResult
) -> Union[BetaSweepRow, SweepErrorRow]:
    """Convert one ``beta``-kind :class:`TaskResult` into a budget row."""
    if not result.ok:
        return _error_row(result, beta=beta)
    v = result.value
    return BetaSweepRow(
        beta=beta,
        n_cut_nets=v["n_cut_nets"],
        n_cut_nets_on_scc=v["n_cut_nets_on_scc"],
        max_input_count=v["max_input_count"],
        n_oversized=v["n_oversized"],
    )


@dataclass(frozen=True)
class SeedStability:
    """Spread of the randomized flow partitioner across seeds (§3.3).

    ``failures`` carries degraded rows for seeds whose run failed;
    the summary statistics cover the successful seeds only.
    """

    seeds: tuple
    cut_counts: tuple
    failures: Tuple[SweepErrorRow, ...] = field(default=())

    @property
    def cut_mean(self) -> float:
        return statistics.fmean(self.cut_counts)

    @property
    def cut_stdev(self) -> float:
        return statistics.pstdev(self.cut_counts)

    @property
    def cut_spread(self) -> float:
        """Relative spread (stdev/mean) — small means the stochastic
        saturation converges to similar congestion pictures."""
        mean = self.cut_mean
        return self.cut_stdev / mean if mean else 0.0


def seed_stability(
    netlist: Netlist,
    seeds: Sequence[int],
    config: Optional[MercedConfig] = None,
    farm: Optional[SweepFarm] = None,
) -> SeedStability:
    """Re-run Merced with different RNG seeds and summarize the spread."""
    base = config or MercedConfig()
    bench = write_bench(netlist)
    points = [
        SweepPoint("merced", netlist.name, bench=bench, config=base.with_seed(s))
        for s in seeds
    ]
    results = (farm or SweepFarm()).map(points)
    return stability_from_results(seeds, results)


def stability_from_results(
    seeds: Sequence[int], results: Sequence[TaskResult]
) -> SeedStability:
    """Summarize per-seed ``merced`` results into a :class:`SeedStability`."""
    ok_seeds: List[int] = []
    cuts: List[int] = []
    failures: List[SweepErrorRow] = []
    for seed, result in zip(seeds, results):
        if not result.ok:
            failures.append(_error_row(result, seed=seed))
            continue
        ok_seeds.append(seed)
        cuts.append(result.value["n_cut_nets"])
    return SeedStability(
        seeds=tuple(ok_seeds),
        cut_counts=tuple(cuts),
        failures=tuple(failures),
    )
