"""One-call compile_circuit flow."""

import pytest

from repro import MercedConfig, load_circuit
from repro.core import CompilationArtifacts, compile_circuit


@pytest.fixture(scope="module")
def arts():
    return compile_circuit(
        load_circuit("s27"), MercedConfig(lk=3, seed=7)
    )


class TestCompile:
    def test_all_artifacts_present(self, arts):
        assert arts.report is not None
        assert arts.retiming is not None
        assert arts.retimed is not None
        assert arts.bist is not None

    def test_retiming_covers_the_reported_retimable(self, arts):
        r = arts.retiming
        parts = (r.covered_cuts, r.dropped_cuts, r.unconstrained_cuts)
        assert sum(len(p) for p in parts) == len(set().union(*parts))
        assert set().union(*parts) == set(arts.report.partition.cut_nets())

    def test_retimed_netlist_is_legal(self, arts):
        from repro.retiming import verify_retiming

        verify_retiming(load_circuit("s27"), arts.retimed.netlist)

    def test_bist_has_dual_mode_controls(self, arts):
        assert any(
            pi.startswith("psa_en_") for pi in arts.bist.netlist.inputs
        )

    def test_summary_mentions_everything(self, arts):
        text = arts.summary()
        assert "Merced report" in text
        assert "retiming:" in text
        assert "exact Table 12:" in text
        assert "BIST netlist:" in text
