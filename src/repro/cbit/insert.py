"""Emit the test-ready netlist: A_CELLs, CBIT feedback, mode and scan wiring.

This is the BIST compiler's actual output artifact.  Given the original
circuit and Merced's partition, it rebuilds the netlist with the test
hardware *in place*:

* every existing DFF that serves a CBIT is **converted** to an A_CELL:
  its data input becomes ``XOR(D, AND(chain_in, test_mode))`` — in normal
  mode the AND forces 0 and the XOR is transparent, so the functional
  behaviour is bit-identical (this is exactly why Figure 3's A_CELL gates
  the feedback with an AND);
* every **cut net** receives a MUXED A_CELL (Figure 3(c)): a fresh DFF
  behind the same XOR/AND pair, with a 2-to-1 MUX steering the original
  combinational value in normal mode and the test register in test mode;
* cells of one cluster are chained into a CBIT: cell ``i`` receives cell
  ``i−1``'s output on its test path, and cell 0 closes the feedback
  through an XOR tree over primitive-polynomial tap positions plus a NOR
  zero-injection term (complete-LFSR-style feedback; the exact-sequence
  behavioural model lives in :mod:`repro.cbit.lfsr`);
* optionally a scan path (``scan_en``/``scan_in``/``scan_out``) threads
  every test register for initialization and signature read-out.

Structure vs accounting: the emitted gates are the functionally minimal
realisation (one NOR per CBIT rather than per cell); the paper's Table 1
area constants remain the canonical *cost model* (`repro.core.cost`), and
:attr:`BISTCircuit.added_area_units` reports the literal inserted area for
cross-checking.

Normal-mode equivalence of the emitted netlist is verified by simulation
in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from ..errors import CBITError
from ..graphs.digraph import NodeKind
from ..netlist.cells import Cell
from ..netlist.gates import GateType
from ..netlist.netlist import Netlist
from ..netlist.transform import fresh_signal_name
from ..partition.clusters import Partition
from .polynomials import primitive_polynomial

__all__ = ["BISTCircuit", "insert_test_hardware"]

TEST_MODE = "test_mode"
SCAN_EN = "scan_en"
SCAN_IN = "scan_in"
SCAN_OUT = "scan_out"


@dataclass
class BISTCircuit:
    """The emitted test-ready netlist plus its bookkeeping."""

    netlist: Netlist
    converted_dffs: Tuple[str, ...]  # existing DFFs now inside CBITs
    cut_cells: Dict[str, str]  # cut net -> test register (DFF output)
    cbit_chains: Dict[int, Tuple[str, ...]]  # cluster -> register chain
    has_scan: bool
    added_area_units: int

    @property
    def chain_order(self) -> List[str]:
        out: List[str] = []
        for cid in sorted(self.cbit_chains):
            out.extend(self.cbit_chains[cid])
        return out


class _Inserter:
    def __init__(self, source: Netlist):
        self.src = source
        self.out = Netlist(f"{source.name}_bist")
        self.added_area = 0

    def gate(self, base: str, gtype: GateType, inputs: Sequence[str]) -> str:
        name = fresh_signal_name(self.out, base)
        self.out.add_gate(name, gtype, list(inputs))
        self.added_area += self.out.cell(name).area_units
        return name

    def dff(self, base: str, data: str) -> str:
        name = fresh_signal_name(self.out, base)
        self.out.add_dff(name, data)
        self.added_area += 10
        return name


def _xor_tree(ins: _Inserter, base: str, terms: Sequence[str]) -> str:
    """Balanced XOR reduction of ``terms`` (at least one)."""
    terms = list(terms)
    if not terms:
        raise CBITError("empty XOR tree")
    while len(terms) > 1:
        nxt = []
        for i in range(0, len(terms) - 1, 2):
            nxt.append(ins.gate(f"{base}_x", GateType.XOR, terms[i : i + 2]))
        if len(terms) % 2:
            nxt.append(terms[-1])
        terms = nxt
    return terms[0]


def insert_test_hardware(
    netlist: Netlist,
    partition: Partition,
    include_scan: bool = False,
    include_primary_inputs: bool = False,
    include_primary_outputs: bool = False,
    dual_mode_controls: bool = False,
) -> BISTCircuit:
    """Rebuild ``netlist`` with PPET test hardware inserted.

    Args:
        netlist: the compiled circuit (must match ``partition.graph``).
        partition: Merced's final partition; its cut nets receive MUXED
            A_CELLs and its clusters define the CBIT chains.
        include_scan: thread a scan path through every test register
            (adds one MUX per register beyond the paper's area model).
        include_primary_inputs: also place test registers on primary
            input nets (full in-situ TPG; off by default — the paper's
            area tables count internal cut nets only).
        include_primary_outputs: add shadow observer A_CELLs on primary
            output nets (the output CBITs of Figure 1(a)); they compact
            POs in test mode and drive nothing functional, so normal-mode
            behaviour is untouched.
        dual_mode_controls: give every CBIT chain its own ``psa_en_<id>``
            input selecting PSA (fold responses) vs TPG (pure LFSR) —
            the dual-mode role switching of Section 1 that test pipes
            exploit.  Adds one AND per cell and an OR per chain; normal
            mode stays transparent for any control values.

    Returns:
        A :class:`BISTCircuit`; its netlist has one extra primary input
        ``test_mode`` (plus scan pins when requested) and is bit-identical
        to the original when ``test_mode = 0``.
    """
    graph = partition.graph
    ins = _Inserter(netlist)
    out = ins.out
    for pi in netlist.inputs:
        out.add_input(pi)
    out.add_input(TEST_MODE)
    if include_scan:
        out.add_input(SCAN_EN)
        out.add_input(SCAN_IN)
    not_tm = None
    if dual_mode_controls:
        not_tm = ins.gate("ntm", GateType.NOT, [TEST_MODE])

    cut_nets = sorted(partition.cut_nets())
    cut_set = set(cut_nets)
    pi_sites: List[str] = []
    if include_primary_inputs:
        pi_sites = [
            pi
            for pi in netlist.inputs
            if graph.has_net(pi)
        ]

    # ------------------------------------------------------------------
    # Pass 1: copy combinational cells verbatim; their input signals are
    # rewired in pass 3 (cut nets reroute through the A_CELL muxes).
    rewire: Dict[str, str] = {}  # original signal -> signal sinks should read

    # ------------------------------------------------------------------
    # Pass 2: group test-register sites by cluster and build the cells.
    # A cut net belongs to the CBIT of (the first) cluster reading it.
    site_cluster: Dict[str, int] = {}
    for cluster in partition.clusters:
        for net_name in sorted(cluster.input_nets):
            if net_name in cut_set or net_name in pi_sites:
                site_cluster.setdefault(net_name, cluster.cluster_id)
    # converted DFFs: existing registers whose output feeds some cluster
    converted: List[str] = []
    dff_cluster: Dict[str, int] = {}
    for cluster in partition.clusters:
        for net_name in sorted(cluster.input_nets):
            src = graph.net(net_name).source
            if graph.kind(src) is NodeKind.REGISTER:
                if src not in dff_cluster:
                    dff_cluster[src] = cluster.cluster_id
                    converted.append(src)

    chains: Dict[int, List[Tuple[str, str]]] = {}
    # per cluster: list of (site kind marker, placeholder) — we build the
    # actual gates after choosing chain order, since cell i needs cell
    # i-1's register output.
    for net_name, cid in sorted(site_cluster.items()):
        chains.setdefault(cid, []).append(("cut", net_name))
    for dff_name, cid in sorted(dff_cluster.items()):
        chains.setdefault(cid, []).append(("dff", dff_name))
    if include_primary_outputs:
        for po in netlist.outputs:
            cl = partition.cluster_of(po)
            if cl is None:
                continue  # PO driven by a PI feed-through
            chains.setdefault(cl.cluster_id, []).append(("po", po))

    cut_cells: Dict[str, str] = {}
    cbit_chains: Dict[int, Tuple[str, ...]] = {}
    scan_prev = SCAN_IN if include_scan else None

    # DFF conversion data inputs must exist before we reference them, but
    # gates reference *signals*, which the netlist validates lazily — we
    # can create everything and validate once at the end.
    psa_inputs: Dict[int, str] = {}
    for cid in sorted(chains):
        if dual_mode_controls:
            pin = f"psa_en_{cid}"
            out.add_input(pin)
            psa_inputs[cid] = pin
    for cid in sorted(chains):
        sites = chains[cid]
        psa_gate = None
        if dual_mode_controls:
            # 1 in normal mode (data transparent) and in PSA role;
            # 0 only in test-mode TPG role (pure LFSR shifting)
            psa_gate = ins.gate(
                f"cbit{cid}_psa", GateType.OR, [psa_inputs[cid], not_tm]
            )
        regs: List[str] = []
        # register output names, in chain order (needed for feedback)
        planned: List[str] = []
        for kind, name in sites:
            if kind == "dff":
                planned.append(name)  # keep the original register name
            elif kind == "po":
                planned.append(f"{name}__pocell_q")
            else:
                planned.append(f"{name}__acell_q")
        width = len(planned)
        # Feedback into cell 0, emulating repro.cbit.lfsr.LFSR exactly:
        # cell i holds LFSR bit (w_eff-1-i); the new top bit is the parity
        # of the characteristic polynomial's tap bits, XOR the NOR of the
        # surviving bits (the complete-cycle zero injection).  Chains
        # longer than 32 keep shifting past the feedback span (the
        # sequence is then non-maximal but still live).
        w_eff = min(width, 32)
        if w_eff >= 2:
            poly = primitive_polynomial(w_eff)
            mask = (1 << w_eff) - 1
            tap_regs = [
                planned[w_eff - 1 - t]
                for t in range(w_eff)
                if (poly >> t) & 1
            ]
            fb_terms = list(dict.fromkeys(tap_regs))
            fb = (
                _xor_tree(ins, f"cbit{cid}_fb", fb_terms)
                if len(fb_terms) > 1
                else fb_terms[0]
            )
            survivors = planned[: w_eff - 1]
            if len(survivors) == 1:
                survivors = survivors * 2  # 2-input NOR minimum
            zero_inj = ins.gate(
                f"cbit{cid}_zero", GateType.NOR, survivors
            )
            fb = ins.gate(f"cbit{cid}_fbz", GateType.XOR, [fb, zero_inj])
        else:
            # single-cell chain: complete cycle = toggle (fb = NOT state)
            fb = ins.gate(
                f"cbit{cid}_zero", GateType.NOR, [planned[0], planned[0]]
            )

        prev = fb
        for (kind, name), reg_name in zip(sites, planned):
            # test-path injection: XOR(D, AND(prev, test_mode))
            gate_in = ins.gate(
                f"{reg_name}_and", GateType.AND, [prev, TEST_MODE]
            )
            if kind == "dff":
                data = netlist.cell(name).inputs[0]
            else:
                data = name  # the cut/PI/PO signal being registered
            if psa_gate is not None:
                data = ins.gate(
                    f"{reg_name}_gate", GateType.AND, [data, psa_gate]
                )
            xored = ins.gate(f"{reg_name}_xor", GateType.XOR, [data, gate_in])
            d_in = xored
            if include_scan:
                d_in = ins.gate(
                    f"{reg_name}_scan",
                    GateType.MUX2,
                    [xored, scan_prev, SCAN_EN],
                )
            if kind == "dff":
                # the original register, now fed through the test XOR
                out.add_dff(name, d_in)
            elif kind == "po":
                # shadow observer: compacts the PO, drives nothing
                ins.dff(reg_name, d_in)
            else:
                q = ins.dff(reg_name, d_in)
                mux = ins.gate(
                    f"{name}__acell_mux",
                    GateType.MUX2,
                    [name, q, TEST_MODE],
                )
                cut_cells[name] = q
                rewire[name] = mux
            prev = reg_name
            if include_scan:
                scan_prev = reg_name
            regs.append(reg_name)
        cbit_chains[cid] = tuple(regs)

    # ------------------------------------------------------------------
    # Pass 3: copy combinational cells, rerouting reads of cut nets to the
    # A_CELL muxes (reads *inside the source's own cluster* keep the direct
    # wire — the register serves the downstream cluster).
    for cell in netlist.comb_cells():
        reader_cluster = partition.cluster_of(cell.output)
        new_inputs = []
        for sig in cell.inputs:
            if sig in rewire:
                src_cluster = partition.cluster_of(graph.net(sig).source)
                if reader_cluster is not None and reader_cluster is src_cluster:
                    new_inputs.append(sig)
                else:
                    new_inputs.append(rewire[sig])
            else:
                new_inputs.append(sig)
        out.add_cell(Cell(cell.output, cell.gtype, tuple(new_inputs)))
    # original DFFs not converted: copy verbatim
    for cell in netlist.dff_cells():
        if cell.output not in dff_cluster:
            out.add_cell(cell)

    for po in netlist.outputs:
        out.add_output(po)
    if include_scan and scan_prev is not None:
        buf = ins.gate(SCAN_OUT, GateType.BUF, [scan_prev])
        out.add_output(buf)

    out.validate()
    return BISTCircuit(
        netlist=out,
        converted_dffs=tuple(converted),
        cut_cells=cut_cells,
        cbit_chains=cbit_chains,
        has_scan=include_scan,
        added_area_units=ins.added_area,
    )
