"""The four benchmark workloads and the traced compile path.

Each ``run_*`` function makes its inputs from the seed, sets up three
times (``setup_s`` adds the median), then runs passes back to back for a
fixed window and returns an :class:`Outcome`.  Pass ``i`` gets its own
inputs, made from :func:`pass_seed`, so the median pass of a run covers
several inputs drawn the same way for every seed.  Only the pass itself
is timed; every output is checked by :mod:`checks` between passes,
outside the timer.  With ``trace=True`` a workload reports its
per-layer metrics instead of the end-to-end ones.

Workload choices (sizes are set so that one run fits the window):

* ``iscas-compile`` — ``compile_circuit`` from ``.bench`` text on
  Table 9 circuits; saturation and retiming dominate.
* ``corpus-scale`` — ``compile_circuit`` on a generated circuit in the
  corpus-50k shape, where ``make_group`` dominates and no cut is dropped.
* ``sweep-grid`` — a ``SweepFarm(jobs=2)`` grid, cold then warm cache:
  worker processes, the per-worker circuit cache and the disk cache.
* ``service-mix`` — ``merced serve`` at its default configuration,
  restarted over a disk cache an earlier run filled, under a closed
  loop of two clients: disk and hot tiers, fresh compiles, coalescing,
  lint-only and bad input.  The traffic mix is synthetic.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import resource
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro import MercedConfig
from repro.analysis.lint import lint_gate
from repro.cbit.assemble import assemble_cbits
from repro.cbit.insert import insert_test_hardware
from repro.circuits import generate_by_name, s27_netlist
from repro.core.cost import compare_cbit_area
from repro.core.merced import compile_circuit
from repro.corpus import TREND_SPECS, generate_corpus_circuit
from repro.corpus.spec import CorpusSpec
from repro.exec import ResultCache, SweepFarm, SweepPoint
from repro.flow.saturate import saturate_network
from repro.graphs import SCCIndex, build_circuit_graph
from repro.netlist.bench import parse_bench, write_bench
from repro.partition import assign_cbit, make_group
from repro.perf import profiled
from repro.retiming.apply import apply_retiming
from repro.retiming.solve import solve_cut_retiming
from repro.service.client import ServiceClient

import checks

ROOT = Path(__file__).resolve().parents[1]

#: Table 9 circuits small enough that three passes fit one run.
ISCAS_CIRCUITS = ("s510", "s420.1", "s641")
SMOKE_ISCAS_CIRCUITS = ("s27", "s510")
CORPUS_GATES, SMOKE_CORPUS_GATES = 2000, 400
SWEEP_CIRCUITS, SMOKE_SWEEP_CIRCUITS = ("s510", "s420.1", "s641"), ("s27",)
SWEEP_LKS = (8, 16, 24)
SWEEP_JOBS = 2
#: Service traffic: one timed batch by request kind (60 requests; a
#: "pair" is one new circuit sent twice), the working-set keys that
#: repeats draw from, and the generated circuit size of every request.
#: The ratios are a synthetic choice, not fitted to recorded traffic.
SERVICE_MIX = {"repeat": 36, "fresh": 12, "pair": 3, "lint": 3, "bad": 3}
SERVICE_WORKING_SET = 48
SERVICE_GATES = 96
SERVICE_CLIENTS = 2
SETUP_REPEATS = 3

#: Layers of the compile path, in the order ``Merced.run`` and
#: ``compile_circuit`` call them.  ``graphs.build`` is entered twice:
#: the partition graph and the retiming graph with PO nodes.
LAYERS = (
    "netlist.parse",
    "graphs.build",
    "graphs.scc",
    "analysis.lint",
    "flow.saturate",
    "partition.make_group",
    "partition.assign_cbit",
    "core.area",
    "cbit.assemble",
    "retiming.solve",
    "retiming.apply",
    "cbit.insert",
)

#: Layer metric name -> the program's own ``repro.perf`` counter.
COUNTERS = {
    "flow.dijkstra_runs": "dijkstra_runs",
    "flow.relaxations": "relaxations",
    "partition.dfs_visits": "dfs_visits",
    "partition.boundary_pops": "boundary_pops",
    "partition.gain_evals": "gain_evals",
    "retiming.bf_relaxations": "bf_relaxations",
    "retiming.rounds": "retiming_rounds",
}

BIST_OPTIONS = dict(
    include_scan=True,
    include_primary_inputs=True,
    include_primary_outputs=True,
    dual_mode_controls=True,
)


@dataclass
class Outcome:
    """What one workload run measured and how many operations it checked."""

    metrics: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    passes: List[float] = field(default_factory=list)  # untraced pass walls

    def record(self, problems: List[str], ops: int = 1) -> None:
        """Record ``ops`` operations; count them failed if any problem."""
        self.attempted += ops
        if problems:
            self.failed += ops
            self.problems.extend(problems)


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest waited-for child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def median_setup(
    setup: Callable[[], object],
    discard: Optional[Callable[[object], None]] = None,
) -> Tuple[float, object]:
    """Run ``setup`` several times; (median seconds, last result).

    ``discard`` releases each earlier result, outside the timer.
    """
    times, state = [], None
    for _ in range(SETUP_REPEATS):
        if state is not None and discard is not None:
            discard(state)
        t0 = time.perf_counter()
        state = setup()
        times.append(time.perf_counter() - t0)
    return statistics.median(times), state


def run_window(
    seconds: float,
    unit: Callable[[int], object],
    settle: Callable[[int, object], None],
) -> List[float]:
    """Run timed passes until the next one would end after ``seconds``.

    ``unit(i)`` is pass ``i`` and is the only timed call;
    ``settle(i, output)`` checks and folds its output untimed.  At least
    one pass always runs.  Returns the pass wall times.
    """
    start = time.perf_counter()
    walls: List[float] = []
    while True:
        t0 = time.perf_counter()
        output = unit(len(walls))
        walls.append(time.perf_counter() - t0)
        settle(len(walls) - 1, output)
        if time.perf_counter() - start + statistics.median(walls) > seconds:
            return walls


def pass_seed(seed: int, index: int) -> int:
    """The seed of pass ``index`` of a run: ``seed`` itself for pass 0."""
    return seed if index == 0 else zlib.crc32(f"{seed}/pass{index}".encode())


def bench_config(netlist, lk: int, seed: int) -> MercedConfig:
    """Size-scaled config, the rule of ``benchmarks/conftest.bench_config``."""
    stats = netlist.stats()
    size = stats.n_dffs + stats.n_gates + stats.n_inverters
    return MercedConfig(
        lk=lk,
        seed=seed,
        max_sources=None if size < 800 else 1200,
        min_visit=20 if size < 800 else 5,
    )


def iscas_netlist(name: str):
    """A fresh (uncached) bundled circuit: exact s27 or a Table 9 stand-in."""
    return s27_netlist() if name == "s27" else generate_by_name(name)


# ---------------------------------------------------------------------------
# compile path: untraced and traced
# ---------------------------------------------------------------------------
@dataclass
class CompileJob:
    """One circuit to compile: its ``.bench`` text and config."""

    name: str
    bench: str
    config: MercedConfig


@dataclass
class Compiled:
    """The parts of a compile the oracles and fingerprints look at."""

    netlist: object
    partition: object
    cost_dff: float
    saturation_sources: int
    n_splits: int
    area: object
    plan: object
    retiming: object
    retimed: object
    bist: object

    @classmethod
    def from_artifacts(cls, netlist, arts) -> "Compiled":
        report = arts.report
        return cls(
            netlist=netlist,
            partition=report.partition,
            cost_dff=report.cost_dff,
            saturation_sources=report.saturation_sources,
            n_splits=report.n_splits,
            area=report.area,
            plan=report.plan,
            retiming=arts.retiming,
            retimed=arts.retimed,
            bist=arts.bist,
        )

    def fingerprint(self) -> Dict[str, object]:
        """Every observable output, order-normalized for ``==``."""
        retiming = self.retiming
        return {
            "clusters": [tuple(sorted(c.nodes)) for c in self.partition.clusters],
            "cost_dff": self.cost_dff,
            "saturation_sources": self.saturation_sources,
            "n_splits": self.n_splits,
            "area": self.area,
            "plan": self.plan,
            "covered": sorted(retiming.covered_cuts),
            "dropped": sorted(retiming.dropped_cuts),
            "unconstrained": sorted(retiming.unconstrained_cuts),
            "rho": sorted(retiming.retiming.rho.items()),
            "retimed": write_bench(self.retimed.netlist),
            "bist": write_bench(self.bist.netlist),
            "bist_area": self.bist.added_area_units,
        }


def compile_untraced(job: CompileJob) -> Compiled:
    """What a user runs: parse the text, then ``compile_circuit``."""
    netlist = parse_bench(job.bench, name=job.name)
    return Compiled.from_artifacts(netlist, compile_circuit(netlist, job.config))


def compile_traced(job: CompileJob, spans: Dict[str, float]) -> Compiled:
    """``compile_untraced`` with each layer's public call timed from outside.

    Calls the layers in the order ``Merced.run`` and ``compile_circuit``
    do, with the same arguments, and adds each call's wall time to
    ``spans``.  The spans do not nest, so each is a self time.
    """

    @contextmanager
    def span(layer: str):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            spans[layer] = spans.get(layer, 0.0) + time.perf_counter() - t0

    config = job.config
    with span("netlist.parse"):
        netlist = parse_bench(job.bench, name=job.name)
        netlist.validate()
    with span("graphs.build"):
        graph = build_circuit_graph(netlist, with_po_nodes=False)
    with span("graphs.scc"):
        scc_index = SCCIndex(graph)
    with span("analysis.lint"):
        lint_gate(netlist, config, graph=graph, scc_index=scc_index)
    with span("flow.saturate"):
        saturation = saturate_network(graph, config)
    with span("partition.make_group"):
        group = make_group(graph, scc_index, config, presaturated=True)
    with span("partition.assign_cbit"):
        assigned = assign_cbit(group.partition)
    partition = assigned.partition
    with span("core.area"):
        stats = netlist.stats()
        area = compare_cbit_area(
            circuit=stats.name,
            lk=config.lk,
            circuit_area_units=stats.area_units,
            cut_nets=partition.cut_nets(),
            scc_index=scc_index,
        )
    with span("cbit.assemble"):
        plan = assemble_cbits(partition)
    with span("graphs.build"):
        po_graph = build_circuit_graph(netlist, with_po_nodes=True)
    with span("retiming.solve"):
        retiming = solve_cut_retiming(po_graph, partition.cut_nets())
    with span("retiming.apply"):
        retimed = apply_retiming(netlist, retiming.retiming.rho)
    with span("cbit.insert"):
        bist = insert_test_hardware(netlist, partition, **BIST_OPTIONS)
    return Compiled(
        netlist=netlist,
        partition=partition,
        cost_dff=assigned.cost_dff,
        saturation_sources=saturation.n_sources,
        n_splits=group.n_splits,
        area=area,
        plan=plan,
        retiming=retiming,
        retimed=retimed,
        bist=bist,
    )


@dataclass
class Traced:
    """A traced compile: its result, wall time and ``repro.perf`` counters."""

    result: Compiled
    wall: float
    counters: Dict[str, int]


def pass_layer_metrics(traced: List[Traced]) -> Dict[str, float]:
    """Counters, IR sizes and output quality of one traced pass."""
    results = [t.result for t in traced]
    metrics: Dict[str, float] = {
        metric: sum(t.counters.get(counter, 0) for t in traced)
        for metric, counter in COUNTERS.items()
    }
    covered = sum(len(r.retiming.covered_cuts) for r in results)
    dropped = sum(len(r.retiming.dropped_cuts) for r in results)
    metrics.update({
        "partition.splits": sum(r.n_splits for r in results),
        "partition.clusters": sum(len(r.partition.clusters) for r in results),
        "partition.cut_nets": sum(len(r.partition.cut_nets()) for r in results),
        "quality.cbit_cost_dff": sum(r.cost_dff for r in results),
        "quality.covered_cut_frac": covered / max(1, covered + dropped),
        "quality.bist_area_units": sum(r.bist.added_area_units for r in results),
    })
    return metrics


def run_compile(
    make_jobs: Callable[[int], List[CompileJob]], seconds: float, trace: bool
) -> Outcome:
    """Timed passes; pass ``i`` compiles each job of ``make_jobs(i)`` once.

    ``make_jobs(0)`` is the set-up; later passes' jobs are made between
    passes, untimed.  A pass is the user's compile of every job; traced,
    each job is compiled a second time through :func:`compile_traced`,
    so the traced result can be required to equal the untraced one and
    the tracing overhead measured.  The pass time counts only the
    untraced compiles.
    """
    setup_s, first = median_setup(lambda: make_jobs(0))
    jobs = {0: first}
    out = Outcome()
    plain_s: List[float] = []
    traced_s: List[float] = []
    spans: Dict[str, float] = {}
    layer: Dict[str, float] = {}

    def unit(i: int):
        compiles = []
        for job in jobs.pop(i):
            t0 = time.perf_counter()
            plain = compile_untraced(job)
            plain_wall = time.perf_counter() - t0
            traced = None
            if trace:
                t0 = time.perf_counter()
                with profiled() as perf:
                    result = compile_traced(job, spans)
                traced = Traced(result, time.perf_counter() - t0, perf.counters)
            compiles.append((job, plain, plain_wall, traced))
        return compiles

    def settle(i: int, compiles) -> None:
        for job, plain, plain_wall, traced in compiles:
            plain_s.append(plain_wall)
            problems = checks.check_compile(plain, job.config.lk)
            if traced is not None:
                traced_s.append(traced.wall)
                if traced.result.fingerprint() != plain.fingerprint():
                    problems.append(f"{job.name}: traced result != untraced result")
            out.record(problems, ops=1 if traced is None else 2)
        out.passes.append(sum(c[2] for c in compiles))
        if trace and i == 0:
            layer.update(pass_layer_metrics([c[3] for c in compiles]))
        jobs[i + 1] = make_jobs(i + 1)

    run_window(seconds, unit, settle)
    out.metrics.update(setup_s=setup_s, peak_rss_mb=peak_rss_mb())
    if not trace:
        return out
    out.metrics.update(layer)
    out.metrics["workload.pass_s"] = statistics.median(out.passes)
    for name in LAYERS:
        out.metrics[f"{name}_s"] = spans.get(name, 0.0) / len(out.passes)
    out.metrics["trace.coverage"] = sum(spans.values()) / sum(traced_s)
    out.metrics["trace.overhead_frac"] = sum(traced_s) / sum(plain_s) - 1.0
    return out


def iscas_jobs(seed: int, smoke: bool, index: int = 0) -> List[CompileJob]:
    """Pass ``index``: the bundled circuits as ``.bench`` text, l_k=16,
    flow seed ``pass_seed(seed, index)``."""
    flow_seed = pass_seed(seed, index)
    jobs = []
    for name in SMOKE_ISCAS_CIRCUITS if smoke else ISCAS_CIRCUITS:
        netlist = iscas_netlist(name)
        jobs.append(CompileJob(
            name, write_bench(netlist), bench_config(netlist, 16, flow_seed)
        ))
    return jobs


def corpus_jobs(seed: int, smoke: bool, index: int = 0) -> List[CompileJob]:
    """Pass ``index``: one corpus-50k-shaped circuit whose generator and
    flow seed are ``pass_seed(seed, index)``."""
    gates = SMOKE_CORPUS_GATES if smoke else CORPUS_GATES
    circuit_seed = pass_seed(seed, index)
    spec = TREND_SPECS["corpus-50k"].with_(
        name=f"corpus-{gates}", seed=circuit_seed, n_gates=gates
    )
    netlist = generate_corpus_circuit(spec)
    return [CompileJob(
        spec.name, write_bench(netlist), bench_config(netlist, 16, circuit_seed)
    )]


def run_iscas_compile(seed, seconds, trace, smoke, work_dir) -> Outcome:
    return run_compile(lambda i: iscas_jobs(seed, smoke, i), seconds, trace)


def run_corpus_scale(seed, seconds, trace, smoke, work_dir) -> Outcome:
    return run_compile(lambda i: corpus_jobs(seed, smoke, i), seconds, trace)


# ---------------------------------------------------------------------------
# sweep farm
# ---------------------------------------------------------------------------
def sweep_points(seed: int, smoke: bool, index: int = 0) -> List[SweepPoint]:
    """Pass ``index``: circuits x l_k at flow seed ``pass_seed(seed,
    index)`` (and the next seed too in the smoke grid)."""
    seed = pass_seed(seed, index)
    seeds = (seed, seed + 1) if smoke else (seed,)
    points = []
    for name in SMOKE_SWEEP_CIRCUITS if smoke else SWEEP_CIRCUITS:
        netlist = iscas_netlist(name)
        text = write_bench(netlist)
        for lk in SWEEP_LKS:
            for flow_seed in seeds:
                config = bench_config(netlist, lk, flow_seed)
                points.append(SweepPoint("merced", name, text, config))
    return points


def run_sweep_grid(seed, seconds, trace, smoke, work_dir) -> Outcome:
    """Cold pass on a fresh disk cache, then a warm pass on the same cache."""
    setup_s, first = median_setup(lambda: sweep_points(seed, smoke))
    grids = {0: first}
    out = Outcome()
    cold_s = out.passes
    warm_s: List[float] = []
    point_s: List[float] = []
    busy: List[float] = []
    layer: Dict[str, float] = {}
    hits = retries = 0

    def timed_map(farm, points, label, profile):
        t0 = time.perf_counter()
        if not profile:
            return farm.map(points), time.perf_counter() - t0, {}
        with profiled(label) as perf:
            results = farm.map(points)
        return results, time.perf_counter() - t0, perf.counters

    def unit(i: int):
        points = grids.pop(i)
        # Counters are taken from the first pass only, so only it is traced.
        profile = trace and i == 0
        cache_dir = tempfile.mkdtemp(prefix="sweep-cache-", dir=work_dir)
        try:
            farm = SweepFarm(jobs=SWEEP_JOBS, cache=ResultCache(cache_dir))
            cold = timed_map(farm, points, "cold", profile)
            warm = timed_map(farm, points, "warm", profile)
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)
        return cold, warm

    def settle(i: int, passes) -> None:
        nonlocal hits, retries
        (cold, cold_wall, counters), (warm, warm_wall, _) = passes
        cold_s.append(cold_wall)
        warm_s.append(warm_wall)
        point_s.extend(r.seconds for r in cold)
        busy.append(sum(r.seconds for r in cold) / (SWEEP_JOBS * cold_wall))
        hits += sum(r.cache_hit for r in warm)
        retries += sum(max(0, r.attempts - 1) for r in cold)
        values = [r.value for r in cold]
        for c, w in zip(cold, warm):
            out.record(checks.check_sweep_point(c, w), ops=2)
        grids[i + 1] = sweep_points(seed, smoke, i + 1)
        if trace and i == 0:
            for metric, counter in COUNTERS.items():
                layer[metric] = counters.get(counter, 0)
            layer["partition.splits"] = counters.get("splits", 0)
            layer["partition.cut_nets"] = counters.get("nets_cut", 0)
            layer["partition.clusters"] = sum(v["n_partitions"] for v in values if v)
            layer["quality.cbit_cost_dff"] = sum(v["cost_dff"] for v in values if v)

    run_window(seconds, unit, settle)
    out.metrics.update(setup_s=setup_s, peak_rss_mb=peak_rss_mb())
    if not trace:
        return out
    out.metrics.update(layer)
    out.metrics.update({
        "workload.pass_s": statistics.median(cold_s),
        "exec.warm_pass_s": statistics.median(warm_s),
        "exec.warm_hit_rate": hits / (len(warm_s) * len(first)),
        "exec.busy_frac": statistics.median(busy),
        "exec.point_p50_s": statistics.median(point_s),
        "exec.retries": retries,
    })
    return out


# ---------------------------------------------------------------------------
# compile service
# ---------------------------------------------------------------------------
def _circuit_text(seed: int, tag: str, index: int) -> str:
    """``.bench`` text of a small generated circuit named by (tag, index)."""
    name = f"{tag}{index}"
    spec = CorpusSpec(
        name=name,
        seed=zlib.crc32(f"{seed}/{name}".encode()),
        n_gates=SERVICE_GATES,
    )
    return write_bench(generate_corpus_circuit(spec))


Request = Tuple[str, str, dict]  # (kind, key, submission)


class RequestStream:
    """The seeded ``service-mix`` traffic, a synthetic mix.

    :meth:`warmup` is every working-set key once; it fills the disk
    cache that the measured service is restarted over.  Each
    :meth:`batch` holds exactly :data:`SERVICE_MIX` in a seeded order:
    60% repeats over the working set (the first of each key is answered
    from disk, later ones from the hot tier), 30% sends of circuits
    never sent before (three of them twice back to back, so both clients
    can hold one key at once and the service may coalesce them), 5%
    ``lint_only`` requests and 5% truncated ``.bench`` submissions.
    Fixed counts keep every batch close to the same amount of work.
    """

    def __init__(self, seed: int):
        self.seed = seed
        self._texts: Dict[str, str] = {}
        self._fresh = 0

    def _text(self, tag: str, index: int) -> str:
        key = f"{tag}{index}"
        if key not in self._texts:
            self._texts[key] = _circuit_text(self.seed, tag, index)
        return self._texts[key]

    def _submission(self, key: str, text: str, **extra) -> dict:
        return dict(circuit=key, bench=text, lk=8, seed=self.seed, **extra)

    def _repeat(self, index: int) -> Request:
        key = f"ws{index}"
        return "compile", key, self._submission(key, self._text("ws", index))

    def _fresh_key(self) -> Tuple[str, str]:
        self._fresh += 1
        return f"new{self._fresh}", self._text("new", self._fresh)

    def warmup(self) -> List[Request]:
        return [self._repeat(i) for i in range(SERVICE_WORKING_SET)]

    def batch(self, index: int) -> List[Request]:
        rng = random.Random(self.seed * 1_000_003 + index)
        groups: List[List[Request]] = []
        for _ in range(SERVICE_MIX["repeat"]):
            groups.append([self._repeat(rng.randrange(SERVICE_WORKING_SET))])
        for _ in range(SERVICE_MIX["fresh"]):
            key, text = self._fresh_key()
            groups.append([("compile", key, self._submission(key, text))])
        for _ in range(SERVICE_MIX["pair"]):
            key, text = self._fresh_key()
            groups.append([("compile", key, self._submission(key, text))] * 2)
        for _ in range(SERVICE_MIX["lint"]):
            key, text = self._fresh_key()
            groups.append(
                [("lint", key, self._submission(key, text, mode="lint_only"))]
            )
        for _ in range(SERVICE_MIX["bad"]):
            key, text = self._fresh_key()
            # Cut a gate line just after its "(": unparseable, never valid.
            lines = text.splitlines()
            gates = [n for n, line in enumerate(lines) if " = " in line]
            cut = rng.choice(gates)
            truncated = "\n".join(lines[:cut] + [lines[cut].split("(")[0] + "("])
            groups.append([("bad", key, self._submission(key, truncated))])
        rng.shuffle(groups)
        return [request for group in groups for request in group]


def post(port: int, payload: dict) -> Tuple[int, object]:
    """One ``POST /v1/compile``; returns (status, decoded body)."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
    try:
        conn.request(
            "POST", "/v1/compile", body=json.dumps(payload).encode(),
            headers={"Content-Type": "application/json"},
        )
        response = conn.getresponse()
        raw = response.read()
    finally:
        conn.close()
    return response.status, json.loads(raw) if raw else None


class Server:
    """``merced serve`` in a subprocess, from spawn to ``/healthz``.

    Every setting but the port and the disk cache is the default.
    """

    def __init__(self, cache_dir: str, work_dir: str):
        src = str(ROOT / "src")
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.core.cli", "serve",
                "--port", "0", "--cache", cache_dir,
            ],
            cwd=str(ROOT),
            env=_child_env(src, work_dir),
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            self.port = self._read_port(timeout=60.0)
            ServiceClient(port=self.port).wait_ready(timeout=60.0)
        except BaseException:
            self.stop()
            raise

    def _read_port(self, timeout: float) -> int:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            ready, _, _ = select.select([self.proc.stdout], [], [], 0.5)
            if not ready:
                continue
            line = self.proc.stdout.readline()
            if not line:
                break
            if "listening on http://" in line:
                return int(line.split("listening on http://")[1].split()[0]
                           .rsplit(":", 1)[1])
        raise RuntimeError("merced serve did not report a listening port")

    def metrics(self) -> Dict[str, object]:
        return ServiceClient(port=self.port).metrics()

    def stop(self) -> None:
        """SIGTERM (graceful drain), then wait; kill if it hangs."""
        if self.proc.returncode is not None:
            return
        self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()


def _child_env(src: str, work_dir: str) -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    env["TMPDIR"] = work_dir
    return env


def _classify(kind: str, status: int, body: object) -> str:
    """Which path answered: hot, disk, coalesced, miss, lint or bad."""
    if kind != "compile":
        return kind
    body = body if isinstance(body, dict) else {}
    if body.get("hot"):
        return "hot"
    if body.get("coalesced"):
        return "coalesced"
    if body.get("cache_hit"):
        return "disk"
    return "miss"


def _percentile_ms(values: List[float], q: int) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return 1e3 * values[0]
    return 1e3 * statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run_service_mix(seed, seconds, trace, smoke, work_dir) -> Outcome:
    """A closed loop of two clients against a restarted ``merced serve``.

    A first service answers the warm-up and is stopped; the measured one
    is booted over the disk cache it left, as after a restart.
    """
    cache_dir = tempfile.mkdtemp(prefix="svc-cache-", dir=work_dir)
    servers: List[Server] = []
    out = Outcome()
    stream = RequestStream(seed)
    first_values: Dict[str, object] = {}

    def boot() -> Server:
        servers.append(Server(cache_dir, work_dir))
        return servers[-1]

    try:
        warm = boot()
        _check_records(out, _send(warm.port, stream.warmup()), first_values)
        warm.stop()
        setup_s, server = median_setup(boot, discard=Server.stop)
        return _drive_service(
            server, stream, out, first_values, seconds, trace, setup_s
        )
    finally:
        for server in servers:
            server.stop()


def _client(port: int, items, lock, records) -> None:
    """One closed-loop client: send the next request once one is answered."""
    while True:
        with lock:
            if not items:
                return
            kind, key, payload = items.pop()
        t0 = time.perf_counter()
        try:
            status, body = post(port, payload)
        except (OSError, http.client.HTTPException, ValueError) as exc:
            status, body = 0, {"error": repr(exc)}
        records.append((kind, key, status, body, time.perf_counter() - t0))


def _send(port: int, requests: List[Request]) -> List[tuple]:
    """Both clients drain ``requests`` in order, each one at a time."""
    items = list(reversed(requests))
    lock = threading.Lock()
    records: List[tuple] = []
    threads = [
        threading.Thread(target=_client, args=(port, items, lock, records))
        for _ in range(SERVICE_CLIENTS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=300)
    if any(thread.is_alive() for thread in threads):
        raise RuntimeError("service client thread did not finish")
    return records


def _check_records(out: Outcome, records, first_values) -> None:
    for kind, key, status, body, _ in records:
        out.record(checks.check_service_response(
            kind, key, status, body, first_values
        ))


def _drive_service(
    server, stream, out, first_values, seconds, trace, setup_s
) -> Outcome:
    latency: Dict[str, List[float]] = {}
    execute: List[float] = []
    waited: List[float] = []

    def settle(i: int, records) -> None:
        _check_records(out, records, first_values)
        for kind, _, status, body, wall in records:
            path = _classify(kind, status, body)
            latency.setdefault(path, []).append(wall)
            if path == "miss":
                # The service's own execute time of this compile.
                execute.append(body.get("seconds", 0.0))
                waited.append(wall - body.get("seconds", 0.0))
        batches[i + 1] = stream.batch(i + 1)

    batches = {0: stream.batch(0)}
    walls = run_window(
        seconds, lambda i: _send(server.port, batches.pop(i)), settle
    )
    counters = server.metrics()["counters"]
    server.stop()
    out.passes = walls
    out.metrics.update(setup_s=setup_s, peak_rss_mb=peak_rss_mb())
    if not trace:
        return out
    every = [x for values in latency.values() for x in values]
    answered = sum(
        counters[k] for k in ("hot_hits", "cache_hits", "executed", "coalesced")
    )
    out.metrics.update({
        "workload.pass_s": statistics.median(walls),
        "service.p50_ms": _percentile_ms(every, 50),
        "service.p99_ms": _percentile_ms(every, 99),
        "service.miss_p50_ms": _percentile_ms(latency.get("miss", []), 50),
        "service.samples": len(every),
        "service.hot_p50_ms": _percentile_ms(latency.get("hot", []), 50),
        "service.disk_p50_ms": _percentile_ms(latency.get("disk", []), 50),
        "service.lint_p50_ms": _percentile_ms(latency.get("lint", []), 50),
        "service.bad_p50_ms": _percentile_ms(latency.get("bad", []), 50),
        "service.execute_p50_ms": _percentile_ms(execute, 50),
        "service.queue_wait_ms": _percentile_ms(waited, 50),
        "service.hot_hit_rate": counters["hot_hits"] / max(1, answered),
        "service.disk_hit_rate": counters["cache_hits"] / max(1, answered),
        "service.coalesced": counters["coalesced"],
        "service.rejected_429": (
            counters["rejected_backpressure"] + counters["rejected_lint_queue"]
        ),
    })
    return out


RUNNERS = {
    "iscas-compile": run_iscas_compile,
    "corpus-scale": run_corpus_scale,
    "sweep-grid": run_sweep_grid,
    "service-mix": run_service_mix,
}
