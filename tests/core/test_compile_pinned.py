"""What ``compile_circuit`` emits, pinned byte for byte.

The BIST digests were recorded from the compile path as it stood before
the retiming rebuild was reworked for memory.  The retimed digests, ρ and
the register counts were re-pinned when ``solve_cut_retiming`` began to
minimise emitted area (10 units per register plus 14 per dropped cut);
the BIST digests did not move.  Any change to the retimed or BIST netlist, to ρ or to
the register count shows up here, which the bench's oracles (they check
behaviour, not bytes) would let through.
"""

import hashlib
import json
from typing import NamedTuple, Tuple

import pytest

from repro import MercedConfig, load_circuit
from repro.core.merced import compile_circuit
from repro.corpus import TREND_SPECS, generate_corpus_circuit
from repro.graphs.build import PO_NODE_PREFIX
from repro.netlist.bench import write_bench
from repro.retiming import trace_to_driver


class Pinned(NamedTuple):
    retimed: str  # sha256 of write_bench(arts.retimed.netlist)
    bist: str  # sha256 of write_bench(arts.bist.netlist)
    rho: str  # sha256 of json.dumps(sorted(rho.items()))
    registers: Tuple[int, int]  # n_registers_before, n_registers_after


PINNED = {
    "s27": Pinned(
        retimed="4c1a746ee027b6cbe3ce53f44d6c04af01df5b2380b6f80c8ffa949559d8d373",
        bist="9ac9f78c806a8e3e3fcd4480b906b8779d78175cbedc6b42592591bef3a4e728",
        rho="00ce1c356027c6bc58774ee88c9283faf23baf48317e799c2d78581a42b2862b",
        registers=(3, 3),
    ),
    "s510": Pinned(
        retimed="d5372bdbebb14a95a529dd0a3fff404c5078d6d38142db03933bd1a3814239e8",
        bist="afc140e31dd389f17695c278b8f86038a5ce877c1ccef1cd6666eadd7d615572",
        rho="96e4b341642f949002f9665763c9e3ca3d232b1d13319d30dc99bfa9c147d2fd",
        registers=(6, 9),
    ),
    "s641": Pinned(
        retimed="ed722375976ed91d3ccfca20d1abf86756d38f7ba6cf359d644ef2e21c0b68ea",
        bist="b1cd682e9347b72391db4e590aa7da44867e35a1b88a9552f578610b8da9993a",
        rho="6fe2b629cc2f72ef63fe1589a62fd006c14f2f926699b257756d1fe6104ce2b8",
        registers=(19, 41),
    ),
    "corpus-400": Pinned(
        retimed="0e5846c3780641633c4c84bce5a9be23d645b9577ca891dc42ae2b70e0fe4fdc",
        bist="8e0c718aa7dfe9044c345dc69fd1038bdd5a5a5adf7b2c703c2791bd591c3f16",
        rho="5ff051416cd00eb76cf5a93d631cecb825c95ec657844a354e86c283d8cb752e",
        registers=(8, 11),
    ),
}


def _case(name):
    """The circuit and config of one pinned case.

    s510, s641 and the 400-gate corpus circuit are under 800 cells, where
    the bench's size-scaled config keeps the defaults (no source cap,
    ``min_visit`` 20) at l_k 16.
    """
    if name == "s27":
        return load_circuit("s27"), MercedConfig(lk=3, seed=7)
    if name == "corpus-400":
        spec = TREND_SPECS["corpus-50k"].with_(
            name=name, seed=1996, n_gates=400
        )
        return generate_corpus_circuit(spec), MercedConfig(lk=16, seed=1996)
    return load_circuit(name), MercedConfig(lk=16, seed=1996)


@pytest.fixture(scope="module", params=sorted(PINNED))
def compiled(request):
    netlist, config = _case(request.param)
    return request.param, netlist, compile_circuit(netlist, config)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_emitted_bytes_are_pinned(compiled):
    name, _, arts = compiled
    rho = json.dumps(sorted(arts.retiming.retiming.rho.items()))
    got = Pinned(
        retimed=_sha(write_bench(arts.retimed.netlist)),
        bist=_sha(write_bench(arts.bist.netlist)),
        rho=_sha(rho),
        registers=(
            arts.retimed.n_registers_before,
            arts.retimed.n_registers_after,
        ),
    )
    assert got == PINNED[name]


def test_register_count_is_the_shared_chain_sum(compiled):
    """Σ over drivers of the longest chain any reader needs (Lemma 1 with
    fan-out sharing), recounted from the input netlist."""
    _, netlist, arts = compiled
    rho = arts.retiming.retiming.rho
    need = {}

    def read(signal, head):
        driver, k = trace_to_driver(netlist, signal)
        w = k + rho.get(head, 0) - rho.get(driver, 0)
        need[driver] = max(need.get(driver, 0), w)

    for cell in netlist.comb_cells():
        for signal in cell.inputs:
            read(signal, cell.output)
    for po in netlist.outputs:
        read(po, f"{PO_NODE_PREFIX}{po}")
    emitted = sum(1 for _ in arts.retimed.netlist.dff_cells())
    assert arts.retimed.n_registers_after == sum(need.values()) == emitted
