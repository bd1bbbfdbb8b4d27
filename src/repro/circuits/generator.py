"""Synthetic ISCAS89-profile circuit generator.

Builds a deterministic synchronous netlist matching a
:class:`~repro.circuits.profiles.CircuitProfile` **exactly** on every
Table 9 statistic — #PIs, #DFFs, #gates, #inverters and estimated area —
and on the Tables 10/11 structural property "DFFs on SCC".

Construction (see DESIGN.md §4 for why this preserves the algorithms'
behaviour):

* the circuit is a pipeline of *stages*; feed-forward DFFs sit at stage
  boundaries, which guarantees they lie on no cycle;
* ``dffs_on_scc`` DFFs are organized into feedback *rings* inside stages:
  ``q_j → (chain of 1–3 dedicated gates) → q_{j+1} → ... → q_0``.  The
  dedicated chain gates may also read ordinary same-stage gates, pulling
  surrounding logic into the SCC the way real control loops do;
* ordinary gates draw their 2 base inputs from the stage's entry signals
  (boundary DFFs, the stage's ring DFFs, its share of PIs) and from
  earlier gates of the same stage, with a recency bias that produces the
  locally-clustered nets the flow partitioner exploits;
* the area target is hit exactly by a budget of +1-unit upgrades
  (NAND/NOR → AND/OR type switches and extra input pins); extra pins
  preferentially consume signals that would otherwise dangle;
* remaining dangling signals become primary outputs.

The generator *verifies its own output*: structural validation, exact
stat matching and the SCC register count are asserted before returning.
"""

from __future__ import annotations

import random
import zlib
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..errors import NetlistError
from ..graphs.build import build_circuit_graph
from ..graphs.scc import SCCIndex
from ..netlist.cells import Cell
from ..netlist.gates import GateType
from ..netlist.netlist import Netlist
from .profiles import CircuitProfile, profile_by_name

__all__ = ["generate_circuit", "generate_by_name", "resolve_seed"]

#: Probability that :meth:`_Builder.pick` walks back from the newest
#: pool entry instead of drawing uniformly.
_RECENCY_BIAS = 0.6


def resolve_seed(profile_name: str, seed: Optional[int]) -> int:
    """The single seed every RNG draw in one generation flows from.

    ``None`` resolves to ``zlib.crc32(profile_name)`` so the default
    circuit for a profile is stable across sessions and platforms.  The
    resolved seed feeds exactly one ``random.Random`` (stdlib Mersenne
    Twister, platform-independent), which is threaded through every
    helper — no helper may construct its own RNG or touch the global
    ``random`` module, so ``(profile, seed)`` → byte-identical
    ``.bench`` output everywhere.  ``tests/circuits/test_determinism.py``
    pins committed digests to keep this true.
    """
    if seed is not None:
        return seed
    return zlib.crc32(profile_name.encode())

#: 2-unit base gate types and their 3-unit upgrade targets.
_BASE_TYPES = (GateType.NAND, GateType.NOR)
_UPGRADE_OF = {GateType.NAND: GateType.AND, GateType.NOR: GateType.OR}
_MAX_FANIN = 6


class _Builder:
    """Stateful construction helper for one generated circuit."""

    def __init__(self, profile: CircuitProfile, seed: int):
        self.profile = profile
        self.seed = seed
        # the ONLY RNG of a generation run; see resolve_seed
        self.rng = random.Random(seed)
        self.netlist = Netlist(profile.name)
        self.order: List[str] = []  # topological creation order of comb cells
        self.position: Dict[str, int] = {}
        self.read: Set[str] = set()
        self._uid = 0

    # -- naming --------------------------------------------------------
    def _name(self, prefix: str) -> str:
        self._uid += 1
        return f"{prefix}{self._uid}"

    # -- primitive creation -------------------------------------------
    def new_gate(self, gtype: GateType, inputs: Sequence[str]) -> str:
        name = self._name("n")
        self.netlist.add_gate(name, gtype, list(inputs))
        self.position[name] = len(self.order)
        self.order.append(name)
        self.read.update(inputs)
        return name

    def new_dff(self, data: str) -> str:
        name = self._name("q")
        self.netlist.add_dff(name, data)
        self.read.add(data)
        return name

    def pick(self, pool: Sequence[str]) -> str:
        """Pick from ``pool`` with recency bias (later entries favoured)."""
        n = len(pool)
        if n == 1:
            return pool[0]
        if self.rng.random() < _RECENCY_BIAS:
            # geometric walk back from the most recent entry
            back = min(n - 1, int(self.rng.expovariate(1 / 6.0)))
            return pool[n - 1 - back]
        return pool[self.rng.randrange(n)]


def _plan_rings(
    rng: random.Random, n_scc_dffs: int, gate_budget: int
) -> List[Tuple[int, List[int]]]:
    """Split the SCC DFFs into rings; per ring edge pick a chain length.

    Returns ``[(ring_size, [chain_len per edge])]``.  Total chain gates are
    kept within ``gate_budget``.
    """
    if gate_budget < n_scc_dffs:
        raise NetlistError(
            "gate budget too small for SCC feedback structure; "
            f"profile needs at least {n_scc_dffs} gates"
        )
    rings: List[Tuple[int, List[int]]] = []
    remaining = n_scc_dffs
    budget = gate_budget
    while remaining > 0:
        size = min(remaining, rng.randint(1, 6))
        remaining -= size
        chains = []
        edges_left_here = size
        for _ in range(size):
            edges_left_here -= 1
            max_len = 3 if budget >= 3 * size else 1
            length = rng.randint(1, max_len)
            # never starve future edges (this ring's and later rings')
            headroom = budget - (remaining + edges_left_here)
            length = max(1, min(length, headroom))
            chains.append(length)
            budget -= length
        rings.append((size, chains))
    assert budget >= 0
    return rings


def generate_circuit(
    profile: CircuitProfile,
    seed: Optional[int] = None,
    n_stages: Optional[int] = None,
) -> Netlist:
    """Generate a circuit matching ``profile`` exactly (see module docs).

    Args:
        profile: target statistics.
        seed: RNG seed, resolved by :func:`resolve_seed` (``None`` →
            stable hash of the profile name); one ``random.Random`` is
            threaded through every helper, so the same ``(profile,
            seed)`` emits byte-identical ``.bench`` text on every
            platform.
        n_stages: pipeline depth; by default scales with circuit size.

    Raises:
        NetlistError: when the profile is internally infeasible (e.g. area
            below the structural minimum, or fewer gates than SCC DFFs).
    """
    b = _Builder(profile, resolve_seed(profile.name, seed))
    rng = b.rng
    nl = b.netlist

    n_off_dffs = profile.n_dffs - profile.dffs_on_scc
    if n_off_dffs < 0:
        raise NetlistError("dffs_on_scc exceeds n_dffs")
    if n_stages is None:
        n_stages = max(2 if n_off_dffs else 1, min(10, 1 + profile.n_gates // 400))
    if n_off_dffs and n_stages < 2:
        n_stages = 2

    # -- primary inputs, assigned to home stages ------------------------
    pis = [f"pi{i}" for i in range(profile.n_inputs)]
    for pi in pis:
        nl.add_input(pi)
    pi_home: Dict[int, List[str]] = {s: [] for s in range(n_stages)}
    global_pis = pis[: min(2, len(pis))]  # control-like inputs fan wide
    for pi in pis[len(global_pis):]:
        pi_home[rng.randrange(n_stages)].append(pi)
    for s in range(n_stages):
        pi_home[s].extend(global_pis)
    if not pi_home[0]:
        pi_home[0].append(pis[0])

    # -- budget split ----------------------------------------------------
    rings = _plan_rings(rng, profile.dffs_on_scc, max(0, profile.n_gates - 1))
    n_chain_gates = sum(sum(chains) for _, chains in rings)
    n_plain_gates = profile.n_gates - n_chain_gates
    if n_plain_gates < n_stages:
        raise NetlistError(
            f"profile {profile.name}: only {profile.n_gates} gates but "
            f"{n_chain_gates} needed for feedback chains"
        )

    # distribute plain gates / inverters / rings over stages
    gates_per_stage = [n_plain_gates // n_stages] * n_stages
    for i in range(n_plain_gates % n_stages):
        gates_per_stage[i] += 1
    invs_per_stage = [profile.n_inverters // n_stages] * n_stages
    for i in range(profile.n_inverters % n_stages):
        invs_per_stage[i] += 1
    ring_stage = [rng.randrange(n_stages) for _ in rings]

    # feed-forward DFFs at boundaries (round robin over the S-1 boundaries)
    off_dff_stage = (
        [s % (n_stages - 1) for s in range(n_off_dffs)] if n_off_dffs else []
    )

    boundary_signals: List[str] = []  # DFF outputs entering current stage
    stage_gate_lists: List[List[str]] = []

    for stage in range(n_stages):
        entry: List[str] = list(pi_home[stage]) + boundary_signals
        # ring DFFs of this stage: create DFFs with placeholder data via
        # two-phase wiring (data assigned after chains exist) — instead we
        # create chains first using a temporary driver, so build rings by
        # creating DFF outputs lazily: create DFFs reading a placeholder
        # net is not possible; create ring DFFs after their chain sources.
        # Strategy: create ordinary gates first, then rings (chains read
        # ordinary gates + entry), then DFFs read chain ends; ring DFF
        # *outputs* must be readable by ordinary gates, so reserve names:
        my_rings = [r for r, s in zip(rings, ring_stage) if s == stage]
        ring_dff_names: List[List[str]] = []
        for size, _chains in my_rings:
            names = []
            for _ in range(size):
                b._uid += 1
                names.append(f"q{b._uid}")
            ring_dff_names.append(names)
        ring_outputs = [n for names in ring_dff_names for n in names]

        pool: List[str] = entry + ring_outputs
        gate_list: List[str] = []
        n_inv_left = invs_per_stage[stage]
        n_gates_here = gates_per_stage[stage]
        inv_every = (
            max(1, n_gates_here // n_inv_left) if n_inv_left else 0
        )
        for gi in range(n_gates_here):
            gtype = rng.choice(_BASE_TYPES)
            a = b.pick(pool)
            c = b.pick(pool)
            if c == a and len(pool) > 1:
                c = b.pick(pool)
            out = b.new_gate(gtype, [a, c])
            pool.append(out)
            gate_list.append(out)
            if n_inv_left and inv_every and gi % inv_every == inv_every - 1:
                src = b.pick(pool)
                inv = b.new_gate(GateType.NOT, [src])
                pool.append(inv)
                n_inv_left -= 1
        while n_inv_left:
            inv = b.new_gate(GateType.NOT, [b.pick(pool)])
            pool.append(inv)
            n_inv_left -= 1

        # rings: chains then DFFs
        for (size, chains), names in zip(my_rings, ring_dff_names):
            chain_ends: List[str] = []
            for j in range(size):
                prev_q = names[j]
                sig = prev_q
                for _ in range(chains[j]):
                    extras: List[str] = []
                    if pool and rng.random() < 0.7:
                        extras.append(b.pick(pool))
                    sig = b.new_gate(
                        rng.choice(_BASE_TYPES),
                        [sig] + (extras or [b.pick(pool)]),
                    )
                chain_ends.append(sig)
            # q_{j+1} = DFF(end of chain started at q_j)
            for j in range(size):
                target = names[(j + 1) % size]
                nl.add_dff(target, chain_ends[j])
                b.read.add(chain_ends[j])
            pool.extend(chain_ends)

        stage_gate_lists.append(gate_list)
        # boundary DFFs into the next stage
        boundary_signals = []
        if stage < n_stages - 1:
            source_pool = gate_list or pool
            for d, s in enumerate(off_dff_stage):
                if s == stage:
                    data = b.pick(source_pool)
                    boundary_signals.append(b.new_dff(data))

    # -- area upgrades ---------------------------------------------------
    base_area = nl.area_units()
    budget = profile.paper_area - base_area
    if budget < 0:
        raise NetlistError(
            f"profile {profile.name}: base area {base_area} already above "
            f"target {profile.paper_area}"
        )
    unread = [
        sig
        for sig in b.order
        if sig not in b.read and not nl.cell(sig).is_dff
    ]
    rng.shuffle(unread)
    # primary inputs nothing picked up: absorb them first (position -1
    # makes any gate a legal attachment target)
    unread_pis = [pi for pi in pis if pi not in b.read]
    for pi in unread_pis:
        b.position[pi] = -1
    unread = unread_pis + unread
    upgradeable = [
        o
        for o in b.order
        if nl.cell(o).gtype in _UPGRADE_OF or nl.cell(o).gtype in _UPGRADE_OF.values()
    ]

    # phase 1: absorb dangling signals as extra input pins (+1 area each)
    leftover_unread: List[str] = []
    for sig in unread:
        if budget <= 0:
            leftover_unread.append(sig)
            continue
        pos = b.position[sig]
        candidates_checked = 0
        attached = False
        while candidates_checked < 12 and not attached:
            candidates_checked += 1
            tgt = upgradeable[rng.randrange(len(upgradeable))]
            cell = nl.cell(tgt)
            if (
                b.position[tgt] > pos
                and cell.fanin < _MAX_FANIN
                and sig not in cell.inputs
            ):
                nl.replace_cell(cell.with_inputs(cell.inputs + (sig,)))
                b.read.add(sig)
                budget -= 1
                attached = True
        if not attached:
            leftover_unread.append(sig)

    # phase 2: spend the remaining budget on type switches / extra pins
    guard = 0
    while budget > 0:
        guard += 1
        if guard > 40 * (budget + len(upgradeable) + 1):  # pragma: no cover
            raise NetlistError("area upgrade loop failed to converge")
        tgt = upgradeable[rng.randrange(len(upgradeable))]
        cell = nl.cell(tgt)
        if cell.gtype in _UPGRADE_OF and rng.random() < 0.5:
            nl.replace_cell(Cell(cell.output, _UPGRADE_OF[cell.gtype], cell.inputs))
            budget -= 1
        elif cell.fanin < _MAX_FANIN:
            pos = b.position[tgt]
            earlier = b.order[:pos]
            src = b.pick(earlier) if earlier else b.pick(list(nl.inputs))
            if src not in cell.inputs:
                nl.replace_cell(cell.with_inputs(cell.inputs + (src,)))
                budget -= 1

    # -- primary outputs ---------------------------------------------------
    last_gates = stage_gate_lists[-1] or b.order
    po_set: Set[str] = set()
    for sig in leftover_unread:
        po_set.add(sig)  # unabsorbed dangling signals become feed-through POs
    want = max(profile.n_outputs, 1)
    attempts = 0
    while len(po_set) < want and attempts < 20 * want:
        attempts += 1
        po_set.add(b.pick(last_gates))
    # DFF outputs that nothing reads must be observable too
    fan = nl.fanout_map()
    for cell in nl.cells():
        if cell.is_dff and not fan.get(cell.output):
            po_set.add(cell.output)
    for sig in sorted(po_set):
        nl.add_output(sig)

    _verify(nl, profile)
    return nl


def _verify(nl: Netlist, profile: CircuitProfile) -> None:
    """Assert the generated circuit matches the profile exactly."""
    nl.validate()
    stats = nl.stats()
    mismatches = []
    for label, got, want in (
        ("inputs", stats.n_inputs, profile.n_inputs),
        ("dffs", stats.n_dffs, profile.n_dffs),
        ("gates", stats.n_gates, profile.n_gates),
        ("inverters", stats.n_inverters, profile.n_inverters),
        ("area", stats.area_units, profile.paper_area),
    ):
        if got != want:
            mismatches.append(f"{label}: got {got}, want {want}")
    if mismatches:
        raise NetlistError(
            f"generated {profile.name} mismatches profile: "
            + "; ".join(mismatches)
        )
    scc = SCCIndex(build_circuit_graph(nl, with_po_nodes=False))
    got_scc = scc.registers_on_sccs()
    if got_scc != profile.dffs_on_scc:
        raise NetlistError(
            f"generated {profile.name}: {got_scc} DFFs on SCC, "
            f"want {profile.dffs_on_scc}"
        )


def generate_by_name(name: str, seed: Optional[int] = None) -> Netlist:
    """Generate the synthetic stand-in for a Table 9 circuit by name."""
    return generate_circuit(profile_by_name(name), seed=seed)
