"""CBIT-area accounting with and without retiming (Table 12 / Figure 8).

The paper's rule (§4.2):

* **with retiming** — a cut net that legal retiming can cover with an
  existing functional DFF costs only the three A_CELL gates
  (``0.9 × DFF``); within each SCC ``λ`` at most ``f(λ)`` cuts can be
  covered (Corollary 2), the excess pays the full A_CELL + MUX
  (``2.3 × DFF``).  Cut nets outside every SCC lie on acyclic paths where
  Eq. 1 lets registers reach them freely, so they take the 0.9 rate.
* **without retiming** — the functional DFFs stay put, so *every* cut net
  pays ``2.3 × DFF``.

``A_Total = A_circuit + A_CBIT`` and the reported metric is
``A_CBIT / A_Total`` in percent.

The retimability count here is the paper's per-SCC budget.  The exact
count comes from the one cut-retiming solve of
:func:`repro.core.merced.compile_circuit`
(:attr:`~repro.core.merced.CompilationArtifacts.exact_area`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

from ..graphs.scc import SCCIndex
from ..netlist.area import ACELL_MUXED_AREA_UNITS, ACELL_RETIMED_EXTRA_UNITS

__all__ = ["CBITAreaComparison", "count_retimable_cuts", "compare_cbit_area"]


def count_retimable_cuts(scc_index: SCCIndex, cut_nets: Sequence[str]) -> int:
    """Number of cut nets coverable by existing DFFs via legal retiming.

    The paper's accounting: per SCC ``λ``, ``min(f(λ), cuts inside λ)``
    plus every off-SCC cut.
    """
    per_scc: Dict[int, int] = {}
    off_scc = 0
    for net in cut_nets:
        info = scc_index.scc_of_net(net)
        if info is None:
            off_scc += 1
        else:
            per_scc[info.scc_id] = per_scc.get(info.scc_id, 0) + 1
    covered = off_scc
    by_id = {s.scc_id: s for s in scc_index.sccs()}
    for scc_id, chi in per_scc.items():
        covered += min(chi, by_id[scc_id].register_count)
    return covered


@dataclass(frozen=True)
class CBITAreaComparison:
    """One Table 12 row (both ``l_k`` columns are separate instances)."""

    circuit: str
    lk: int
    circuit_area_units: int
    n_cut_nets: int
    n_cut_nets_on_scc: int
    n_retimable: int

    @property
    def n_excess(self) -> int:
        """Cut nets that keep the MUXed A_CELL despite retiming."""
        return self.n_cut_nets - self.n_retimable

    @property
    def cbit_area_with_retiming_units(self) -> int:
        return (
            self.n_retimable * ACELL_RETIMED_EXTRA_UNITS
            + self.n_excess * ACELL_MUXED_AREA_UNITS
        )

    @property
    def cbit_area_without_retiming_units(self) -> int:
        return self.n_cut_nets * ACELL_MUXED_AREA_UNITS

    def _pct(self, cbit_units: int) -> float:
        total = self.circuit_area_units + cbit_units
        return 100.0 * cbit_units / total if total else 0.0

    @property
    def pct_with_retiming(self) -> float:
        """``A_CBIT/A_Total`` (%) with retiming — Table 12 column."""
        return self._pct(self.cbit_area_with_retiming_units)

    @property
    def pct_without_retiming(self) -> float:
        return self._pct(self.cbit_area_without_retiming_units)

    @property
    def saving_points(self) -> float:
        """Percentage-point reduction (the Figure 8 gap)."""
        return self.pct_without_retiming - self.pct_with_retiming

    @property
    def relative_area_reduction(self) -> float:
        """Relative CBIT-area reduction (the paper's headline ~20 %+)."""
        without = self.cbit_area_without_retiming_units
        if without == 0:
            return 0.0
        return 100.0 * (without - self.cbit_area_with_retiming_units) / without


def compare_cbit_area(
    circuit: str,
    lk: int,
    circuit_area_units: int,
    cut_nets: Sequence[str],
    scc_index: SCCIndex,
) -> CBITAreaComparison:
    """Build the with/without-retiming comparison for one partition run."""
    on_scc = [n for n in cut_nets if scc_index.net_on_scc(n)]
    retimable = count_retimable_cuts(scc_index, cut_nets)
    return CBITAreaComparison(
        circuit=circuit,
        lk=lk,
        circuit_area_units=circuit_area_units,
        n_cut_nets=len(cut_nets),
        n_cut_nets_on_scc=len(on_scc),
        n_retimable=retimable,
    )
