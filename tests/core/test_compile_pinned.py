"""What ``compile_circuit`` emits, pinned byte for byte.

The BIST digests were recorded from the compile path as it stood before
the retiming rebuild was reworked for memory.  The retimed digests, ρ and
the register counts were re-pinned when ``solve_cut_retiming`` gained its
register step (the fewest registers that keep the maximum coverage);
s27 did not move.  Any change to the retimed or BIST netlist, to ρ or to
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
        retimed="9fd785f1f73bb8a846b28f5a64dfb6d43c69b97ec07452e7881e6dd94c2d613f",
        bist="9ac9f78c806a8e3e3fcd4480b906b8779d78175cbedc6b42592591bef3a4e728",
        rho="ee6d4b282829235b01d929a8937d47ed2ceff5d9281cf4df214954c5f80d7cf1",
        registers=(3, 5),
    ),
    "s510": Pinned(
        retimed="d72c2843619483517fa9a21b743d08aae39bfe8fc5f868aeb640dd43bc1e8523",
        bist="afc140e31dd389f17695c278b8f86038a5ce877c1ccef1cd6666eadd7d615572",
        rho="acb80473058f1f5bcb800cac3f086a880f8026b1553fce8599f22b39a5108e11",
        registers=(6, 65),
    ),
    "s641": Pinned(
        retimed="ab01d475aa58e35344943660d52b546fc52d488b309f7ce69c748b4af5cd1cdd",
        bist="b1cd682e9347b72391db4e590aa7da44867e35a1b88a9552f578610b8da9993a",
        rho="56b9384719744a253ec5d61e479f57f8e40bce713d12f12f6f684e8be9ddf9de",
        registers=(19, 368),
    ),
    "corpus-400": Pinned(
        retimed="7588f128b8848e1910c254c3b5773c22973f1d3a9ed5abfd7c417ffd39c62041",
        bist="8e0c718aa7dfe9044c345dc69fd1038bdd5a5a5adf7b2c703c2791bd591c3f16",
        rho="1575755f47f346ef9a29d615e0ec17d1d663777db2d2bca0b6c118e9aa9cfe16",
        registers=(8, 1447),
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
