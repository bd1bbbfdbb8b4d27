"""Area constants and breakdowns (Figure 3 / Table 9 counting rules)."""

import pytest

from repro.netlist import (
    ACELL_AREA_UNITS,
    ACELL_FACTOR,
    ACELL_MUXED_AREA_UNITS,
    ACELL_MUXED_FACTOR,
    ACELL_RETIMED_EXTRA_UNITS,
    ACELL_RETIMED_FACTOR,
    circuit_area_units,
)


class TestACellConstants:
    """The paper's Figure 3 factors: 1.9 / 0.9 / 2.3 × DFF."""

    def test_fresh_acell_is_19_units(self):
        assert ACELL_AREA_UNITS == 19
        assert ACELL_FACTOR == pytest.approx(1.9)

    def test_retimed_acell_adds_9_units(self):
        assert ACELL_RETIMED_EXTRA_UNITS == 9
        assert ACELL_RETIMED_FACTOR == pytest.approx(0.9)

    def test_muxed_acell_is_quoted_23_units(self):
        assert ACELL_MUXED_AREA_UNITS == 23
        assert ACELL_MUXED_FACTOR == pytest.approx(2.3)

    def test_ordering(self):
        assert (
            ACELL_RETIMED_EXTRA_UNITS
            < ACELL_AREA_UNITS
            < ACELL_MUXED_AREA_UNITS
        )


class TestCircuitArea:
    def test_s27_area(self, s27):
        assert circuit_area_units(s27) == 51
