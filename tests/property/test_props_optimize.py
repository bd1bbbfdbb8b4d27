"""Property-based tests: refinement legality on random circuits.

The satellite contract for the ``--optimize`` tier: **every accepted
move preserves Eq. 5/6 legality** and the final Σ never exceeds the
greedy seed's.  The annealer runs with ``audit=True``, which recounts
every incremental invariant (input-net caches, the live cut set, the
per-SCC Eq. 6 charges, Σ itself) from scratch after *each accepted
move* and raises on the first divergence — so a single hypothesis
example checks the whole accepted-move trace, not just the endpoints.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.circuits.generator import generate_circuit
from repro.circuits.profiles import CircuitProfile
from repro.config import MercedConfig
from repro.graphs import SCCIndex, build_circuit_graph
from repro.optimize import anneal_refine, fast_refine
from repro.partition import assign_cbit, make_group


@st.composite
def small_profiles(draw):
    n_dffs = draw(st.integers(min_value=2, max_value=10))
    dffs_on_scc = draw(st.integers(min_value=0, max_value=n_dffs))
    n_gates = draw(
        st.integers(min_value=max(20, 3 * n_dffs + 5), max_value=60)
    )
    n_inv = draw(st.integers(min_value=0, max_value=10))
    base = 2 * n_gates + n_inv + 10 * n_dffs
    area = base + draw(st.integers(min_value=0, max_value=n_gates))
    return CircuitProfile(
        name=f"opt{draw(st.integers(0, 10**6))}",
        n_inputs=draw(st.integers(min_value=3, max_value=8)),
        n_dffs=n_dffs,
        n_gates=n_gates,
        n_inverters=n_inv,
        paper_area=area,
        dffs_on_scc=dffs_on_scc,
        n_outputs=draw(st.integers(min_value=1, max_value=4)),
    )


def _refine(profile, lk, seed, variant):
    netlist = generate_circuit(profile, seed=7)
    graph = build_circuit_graph(netlist, with_po_nodes=False)
    scc_index = SCCIndex(graph)
    config = MercedConfig(
        lk=lk,
        seed=seed,
        min_visit=3,
        optimize=variant,
        optimize_budget=0.05,  # floor of 64 steps — enough to move
    )
    group = make_group(graph, scc_index, config, strict=False)
    partition = assign_cbit(group.partition).partition
    refine = anneal_refine if variant == "anneal" else fast_refine
    # audit=True: Eq. 5/6 + cache + Σ recount after every accepted move
    return refine(
        graph,
        scc_index,
        partition,
        config,
        name=profile.name,
        audit=True,
    )


@given(
    small_profiles(),
    st.integers(min_value=6, max_value=16),
    st.integers(min_value=0, max_value=2**20),
)
@settings(max_examples=20, deadline=None)
def test_anneal_accepted_moves_stay_legal(profile, lk, seed):
    res = _refine(profile, lk, seed, "anneal")
    assert res.sigma_after <= res.sigma_before + 1e-9
    assert res.cost_after <= res.cost_before + 1e-9
    res.partition.validate()


@given(small_profiles(), st.integers(min_value=6, max_value=16))
@settings(max_examples=10, deadline=None)
# the sweeps cut 16 -> 13 nets here while the least-area solve drops
# 10 -> 11 of them, a higher exact cost than the seed's
@example(
    profile=CircuitProfile(
        name="opt16234",
        n_inputs=5,
        n_dffs=9,
        n_gates=44,
        n_inverters=10,
        paper_area=203,
        dffs_on_scc=2,
        n_outputs=2,
    ),
    lk=8,
)
def test_fast_accepted_moves_stay_legal(profile, lk):
    res = _refine(profile, lk, 1, "fast")
    assert res.sigma_after <= res.sigma_before + 1e-9
    assert res.cost_after <= res.cost_before + 1e-9
    res.partition.validate()
