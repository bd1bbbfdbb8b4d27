"""Output oracles for the benchmark workloads.

Every check reads what the program emitted and returns a list of
problems (empty when the output is correct).  None of them trusts state
the compile built for itself:

* Eq. 5 is recounted with ``cluster_input_count`` on a graph built
  afresh from the input netlist, never from the cached
  ``Cluster.input_count``;
* the retimed netlist must be a legal retiming of the input, with ρ
  inferred from the two netlists alone (``verify_retiming``);
* the emitted BIST netlist must pass ``Netlist.validate``;
* sweep warm passes must return the cold-pass payloads;
* the service must give one value per key whichever tier answers it,
  and a typed 400 for every malformed submission.

The workloads call these after their timer stops, so checking never
counts against a measured time.
"""

from __future__ import annotations

from typing import Dict, List

from repro.errors import NetlistError, RetimingError
from repro.graphs import build_circuit_graph
from repro.partition import cluster_input_count
from repro.retiming.legality import verify_retiming


def check_partition(netlist, partition, lk: int) -> List[str]:
    """Eq. 5: every cluster's recounted input count is at most ``lk``."""
    graph = build_circuit_graph(netlist, with_po_nodes=False)
    problems = []
    for cluster in partition.clusters:
        iota = cluster_input_count(graph, cluster.nodes)
        if iota > lk:
            problems.append(
                f"{netlist.name}: cluster {cluster.cluster_id} has "
                f"{iota} inputs > l_k={lk} (Eq. 5)"
            )
    return problems


def check_retiming(netlist, retimed_netlist) -> List[str]:
    """The retimed netlist is a legal retiming of ``netlist``."""
    try:
        verify_retiming(netlist, retimed_netlist)
    except RetimingError as exc:
        return [f"{netlist.name}: retimed netlist is not a legal retiming: {exc}"]
    return []


def check_bist(bist_netlist) -> List[str]:
    """The emitted test-ready netlist is a valid synchronous circuit."""
    try:
        bist_netlist.validate()
    except NetlistError as exc:
        return [f"{bist_netlist.name}: BIST netlist is invalid: {exc}"]
    return []


def check_compile(result, lk: int) -> List[str]:
    """All three compile oracles on one compile: the input ``netlist``,
    its ``partition``, the ``retimed`` and the ``bist`` outputs."""
    return (
        check_partition(result.netlist, result.partition, lk)
        + check_retiming(result.netlist, result.retimed.netlist)
        + check_bist(result.bist.netlist)
    )


def check_sweep_point(cold, warm) -> List[str]:
    """A cold point succeeded and the warm pass replayed it from cache."""
    label = f"{cold.point.circuit}/lk={cold.point.config.lk}"
    if not cold.ok:
        return [f"{label}: cold point failed: {cold.error}"]
    if not warm.cache_hit:
        return [f"{label}: warm point missed the cache"]
    if warm.value != cold.value:
        return [f"{label}: warm payload differs from cold payload"]
    return []


def check_service_response(
    kind: str, key: str, status: int, body: object,
    first_values: Dict[str, object],
) -> List[str]:
    """One response: same value per key on a 200, typed 400 when malformed.

    ``kind`` is what the request was (``"compile"``, ``"lint"`` or
    ``"bad"``).  ``first_values`` maps each request key to the first
    value the service returned for it, and is filled in here.
    """
    body = body if isinstance(body, dict) else {}
    if kind == "bad":
        if status != 400 or body.get("error_type") != "BenchParseError":
            return [
                f"{key}: truncated .bench got {status} "
                f"{body.get('error_type')!r}, want 400 BenchParseError"
            ]
    elif kind == "lint":
        if status != 200 or body.get("degraded") != "lint_only" or (
            "lint" not in body
        ):
            return [f"{key}: lint_only request got {status} {body}"]
    elif status != 200 or not body.get("ok"):
        return [
            f"{key}: compile got {status} {body.get('error_type')}: "
            f"{body.get('error')}"
        ]
    elif body["value"] != first_values.setdefault(key, body["value"]):
        return [f"{key}: value differs from the first answer for this key"]
    return []
