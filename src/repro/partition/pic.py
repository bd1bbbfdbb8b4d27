"""Formal Partition-with-Input-Constraint (PIC) checks — Eqs. 5 and 6.

The PIC problem (paper §2.3, proven NP-complete in [4]) asks for an m-way
partition ``Π_m : V → {1..m}`` with every block's input count within a
bound ``κ``.  This module validates candidate partitions against the two
published constraints:

* **Eq. 5** — ``1 ≤ ι(π_i) ≤ l_k`` for every block with combinational
  content (blocks made only of registers have ι = 0 and are exempt: they
  carry no circuit-under-test);
* **Eq. 6** — for every SCC ``λ``, the number of cut nets internal to λ
  satisfies ``χ(λ) ≤ β · f(λ)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..errors import PartitionError
from ..graphs.scc import SCCIndex
from .clusters import Partition

__all__ = ["PICViolation", "check_pic"]


@dataclass(frozen=True)
class PICViolation:
    """One constraint violation found by :func:`check_pic`."""

    kind: str  # "input-bound" | "scc-budget" | "coverage"
    detail: str


def check_pic(
    partition: Partition,
    beta: int,
    scc_index: SCCIndex = None,
) -> List[PICViolation]:
    """Return all Eq. 5 / Eq. 6 violations of ``partition`` (empty = valid)."""
    violations: List[PICViolation] = []
    scc_index = scc_index or partition.scc_index
    for cluster in partition.clusters:
        if cluster.input_count > partition.lk:
            violations.append(
                PICViolation(
                    "input-bound",
                    f"cluster {cluster.cluster_id}: ι="
                    f"{cluster.input_count} > l_k={partition.lk}",
                )
            )
    try:
        partition.validate()
    except PartitionError as exc:
        violations.append(PICViolation("coverage", str(exc)))
    if scc_index is not None:
        cuts_per_scc: Dict[int, int] = {}
        for net_name in partition.cut_nets():
            info = scc_index.scc_of_net(net_name)
            if info is not None:
                cuts_per_scc[info.scc_id] = cuts_per_scc.get(info.scc_id, 0) + 1
        for info in scc_index.sccs():
            chi = cuts_per_scc.get(info.scc_id, 0)
            budget = info.cut_budget(beta)
            if chi > budget:
                violations.append(
                    PICViolation(
                        "scc-budget",
                        f"SCC {info.scc_id}: χ={chi} > β·f = "
                        f"{beta}×{info.register_count} = {budget}",
                    )
                )
    return violations
