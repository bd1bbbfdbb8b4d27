"""The sweep farm's unit of work and its outcome.

A :class:`SweepPoint` is a *picklable, self-contained* description of
one grid point: the circuit (as canonical ``.bench`` text, so workers
never share in-memory state with the parent), the
:class:`~repro.config.MercedConfig` to run it under, and a ``kind``
selecting what to compute.  :func:`run_point` executes a point in the
current process; the pool runs the very same function in workers, which
is what makes ``--jobs 1`` and ``--jobs N`` bit-identical.  Every call
parses the text and builds its own circuit graph, so points running on
concurrent threads (the compile service's executors) never share the
graph that saturation and clustering mutate.

Built-in kinds:

``merced``
    Full Merced compilation (Table 2); the payload carries the
    deterministic row statistics of Tables 10–12 (cut nets, CBIT area
    ratios, catalogue cost) — everything except wall-clock CPU time,
    which is excluded on purpose so payloads are reproducible and
    cacheable.
``beta``
    Partition-only run with ``strict=False`` (the §4.1 β study): welded
    oversized SCCs are counted, not raised.

Fault-injection kinds (used by the robustness tests and available for
diagnosing a deployment; all are no-ops for real sweeps):

``_sleep``
    Sleep ``params["seconds"]`` — exercises the per-task timeout
    (main-thread ``SIGALRM`` interrupts the sleep mid-flight).
``_spin``
    Busy-loop pure Python bytecode for ``params["seconds"]`` —
    exercises the per-task timeout on *worker threads*, where the
    watchdog's async-exception injection lands at bytecode boundaries
    (a blocking ``time.sleep`` would delay delivery until it returns).
``_raise``
    Raise :class:`~repro.errors.InfeasiblePartitionError` with
    ``params["message"]`` — exercises degraded-row handling.
``_exit``
    Kill the worker process with ``os._exit(1)`` — exercises
    dead-worker recovery (``BrokenProcessPool``).
``_echo``
    Return ``params`` unchanged — exercises cache plumbing cheaply.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Mapping, Optional, Tuple

from ..config import MercedConfig
from ..errors import InfeasiblePartitionError, SweepError

__all__ = [
    "SweepPoint",
    "TaskResult",
    "run_point",
    "merced_payload",
    "known_kinds",
]


@dataclass(frozen=True)
class SweepPoint:
    """One independent point of a sweep grid.

    Attributes:
        kind: task kind (see module docstring).
        circuit: display label (benchmark name) for reports.
        bench: canonical ``.bench`` text of the netlist (may be empty
            for synthetic/fault-injection kinds).
        config: full Merced parameter set for this point — the seed
            travels *inside* the point, which is what makes execution
            order irrelevant.
        params: extra kind-specific parameters as a sorted tuple of
            ``(key, value)`` pairs (tuples keep the point hashable).
    """

    kind: str
    circuit: str
    bench: str = ""
    config: MercedConfig = field(default_factory=MercedConfig)
    params: Tuple[Tuple[str, object], ...] = ()

    def param_dict(self) -> Dict[str, object]:
        """The ``params`` pairs as a plain dict."""
        return dict(self.params)

    @staticmethod
    def make_params(mapping: Mapping[str, object]) -> Tuple[Tuple[str, object], ...]:
        """Normalize a mapping into the sorted-tuple ``params`` form."""
        return tuple(sorted(mapping.items()))


@dataclass(frozen=True)
class TaskResult:
    """Outcome of one :class:`SweepPoint` execution (or cache hit).

    Attributes:
        point: the point that was executed.
        value: the kind's payload dict on success, ``None`` on failure.
        error: stringified exception on permanent failure.
        error_type: exception class name (``"SweepTimeoutError"``,
            ``"InfeasiblePartitionError"``, ``"BrokenWorker"``, ...).
        attempts: how many executions were tried (1 = first try
            succeeded; cache hits report 0).
        cache_hit: the payload came from the on-disk cache.
        seconds: wall-clock of the successful attempt (0.0 for hits).
        perf: serialized :class:`~repro.perf.PerfTrace` dict collected
            in the worker, or ``None`` when the worker ran untraced.
        stage: pipeline stage name the failure unwound from (innermost
            ``repro.perf.stage`` block; ``None`` on success or when the
            failure hit outside any stage).
        diagnostics: machine-readable lint findings
            (:meth:`repro.analysis.Diagnostic.as_dict` payloads)
            attached to the failure, or ``None``.
    """

    point: SweepPoint
    value: Optional[Dict[str, object]] = None
    error: Optional[str] = None
    error_type: Optional[str] = None
    attempts: int = 1
    cache_hit: bool = False
    seconds: float = 0.0
    perf: Optional[Dict[str, object]] = None
    stage: Optional[str] = None
    diagnostics: Optional[Tuple[Dict[str, str], ...]] = None

    @property
    def ok(self) -> bool:
        """True when the point produced a payload."""
        return self.value is not None


def merced_payload(report) -> Dict[str, object]:
    """The deterministic slice of a :class:`~repro.core.result.MercedReport`.

    Wall-clock CPU time is deliberately excluded: payloads must be
    bit-identical across runs, worker counts, and cache round-trips.
    """
    area = report.area
    row = report.row
    payload: Dict[str, object] = {
        "circuit": row.circuit,
        "lk": report.config.lk,
        "beta": report.config.beta,
        "seed": report.config.seed,
        "n_partitions": report.n_partitions,
        "n_dffs": row.n_dffs,
        "n_dffs_on_scc": row.n_dffs_on_scc,
        "n_cut_nets": area.n_cut_nets,
        "n_cut_nets_on_scc": area.n_cut_nets_on_scc,
        "n_retimable": area.n_retimable,
        "max_input_count": report.partition.max_input_count(),
        "n_merges": report.n_merges,
        "n_splits": report.n_splits,
        "saturation_sources": report.saturation_sources,
        "cost_dff": report.cost_dff,
        "pct_with_retiming": area.pct_with_retiming,
        "pct_without_retiming": area.pct_without_retiming,
    }
    if report.optimize is not None:
        # refinement deltas ride along only when the point asked for
        # them, so payloads of non-optimized sweeps stay byte-identical
        payload["optimize"] = dict(report.optimize)
    return payload


def _run_merced(point: SweepPoint) -> Dict[str, object]:
    from ..core.merced import Merced
    from ..errors import ReproError
    from ..netlist.bench import parse_bench

    netlist = parse_bench(point.bench, name=point.circuit)
    try:
        report = Merced(point.config).run(netlist)
    except ReproError as exc:
        _attach_lint(exc, point, netlist)
        raise
    return merced_payload(report)


def _attach_lint(exc, point: SweepPoint, netlist) -> None:
    """Attach pre-lint diagnostics to a failing point's exception.

    The entry gate already stamps ``lint_diagnostics`` on its own
    aborts; failures from deeper stages get a best-effort lint pass here
    so the resulting :class:`~repro.core.sweep.SweepErrorRow` explains
    the circuit state the stage choked on.  Lint failures never mask the
    original error.
    """
    if hasattr(exc, "lint_diagnostics"):
        return
    try:
        from ..analysis.lint import lint_circuit

        report = lint_circuit(netlist, point.config)
        exc.lint_diagnostics = [d.as_dict() for d in report.diagnostics]
    except Exception:
        pass


def _run_beta(point: SweepPoint) -> Dict[str, object]:
    from ..graphs.build import build_circuit_graph
    from ..graphs.scc import SCCIndex
    from ..netlist.bench import parse_bench
    from ..partition.assign_cbit import assign_cbit
    from ..partition.make_group import make_group

    netlist = parse_bench(point.bench, name=point.circuit)
    graph = build_circuit_graph(netlist, with_po_nodes=False)
    group = make_group(graph, SCCIndex(graph), point.config, strict=False)
    merged = assign_cbit(group.partition)
    p = merged.partition
    oversized = [c for c in p.clusters if c.input_count > point.config.lk]
    return {
        "circuit": point.circuit,
        "beta": point.config.beta,
        "n_cut_nets": len(p.cut_nets()),
        "n_cut_nets_on_scc": len(p.cut_nets_on_scc()),
        "max_input_count": p.max_input_count(),
        "n_oversized": len(oversized),
    }


def _run_sleep(point: SweepPoint) -> Dict[str, object]:
    import time

    time.sleep(float(point.param_dict().get("seconds", 3600.0)))
    return {"slept": True}


def _run_spin(point: SweepPoint) -> Dict[str, object]:
    import time

    until = time.perf_counter() + float(
        point.param_dict().get("seconds", 3600.0)
    )
    spins = 0
    while time.perf_counter() < until:
        spins += 1
    return {"spun": True, "spins": spins}


def _run_raise(point: SweepPoint) -> Dict[str, object]:
    raise InfeasiblePartitionError(
        str(point.param_dict().get("message", "injected failure"))
    )


def _run_exit(point: SweepPoint) -> Dict[str, object]:
    import os

    os._exit(int(point.param_dict().get("code", 1)))


def _run_echo(point: SweepPoint) -> Dict[str, object]:
    return point.param_dict()


#: kind → executor.  Module-level so worker processes resolve the same
#: table after a plain import (no closure shipping).
_KINDS: Dict[str, Callable[[SweepPoint], Dict[str, object]]] = {
    "merced": _run_merced,
    "beta": _run_beta,
    "_sleep": _run_sleep,
    "_spin": _run_spin,
    "_raise": _run_raise,
    "_exit": _run_exit,
    "_echo": _run_echo,
}


def known_kinds() -> Tuple[str, ...]:
    """The registered task kinds, sorted (public + fault-injection).

    The compile service validates submissions against this before
    admitting them, so an unknown kind is a clean 400 instead of a
    degraded row.
    """
    return tuple(sorted(_KINDS))


def run_point(point: SweepPoint) -> Dict[str, object]:
    """Execute one sweep point in the current process.

    Returns the kind's JSON-serializable payload dict.

    Raises:
        SweepError: unknown ``point.kind``.
        ReproError: whatever the underlying pipeline raises for this
            point (the farm converts these into degraded rows).
    """
    try:
        fn = _KINDS[point.kind]
    except KeyError:
        raise SweepError(
            f"unknown sweep task kind {point.kind!r} "
            f"(known: {sorted(_KINDS)})"
        ) from None
    return fn(point)
