"""What ``compile_circuit`` emits, pinned byte for byte.

The digests were recorded from the compile path as it stood before the
retiming rebuild was reworked for memory.  Any change to the retimed or
BIST netlist, to ρ or to the register count shows up here, which the
bench's oracles (they check behaviour, not bytes) would let through.
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
        retimed="ca7edfbf2e4a3a1714f6b6612d7bdffa52cb48124181e0513aca009cd5e0aa10",
        bist="afc140e31dd389f17695c278b8f86038a5ce877c1ccef1cd6666eadd7d615572",
        rho="b95c58d8bae908448fb006cd853a598de55caa7c70e79d29887370e589bb5fe7",
        registers=(6, 84),
    ),
    "s641": Pinned(
        retimed="c9721c96217d03628dd23e81c78b0ee0f32af795456f067d579f2ba367632f44",
        bist="b1cd682e9347b72391db4e590aa7da44867e35a1b88a9552f578610b8da9993a",
        rho="882f9d6ed7b2d58f225696636023b85f2a271b470b74a7459b08141d06bf0d03",
        registers=(19, 448),
    ),
    "corpus-400": Pinned(
        retimed="009c6de23fec8d0315890637455fbea403442ffbab66fd042df5f7b4e1ac486d",
        bist="8e0c718aa7dfe9044c345dc69fd1038bdd5a5a5adf7b2c703c2791bd591c3f16",
        rho="bd321fd606cfde207b90f65c8f6743c286f6c99b5f9edba5a8c6bbefcadbd08c",
        registers=(8, 2414),
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
