"""CBIT catalogue (Table 1) and the cost model."""

import pytest

from repro.cbit import (
    PAPER_CBIT_TYPES,
    cbit_cost_for_inputs,
    estimate_cbit_area_dff,
    smallest_type_for,
)
from repro.errors import CBITError


class TestTable1:
    def test_published_values(self):
        table = {(t.name, t.length): t.area_dff for t in PAPER_CBIT_TYPES}
        assert table == {
            ("d1", 4): 8.14,
            ("d2", 8): 16.68,
            ("d3", 12): 24.48,
            ("d4", 16): 32.21,
            ("d5", 24): 47.66,
            ("d6", 32): 63.12,
        }

    def test_per_bit_cost_column(self):
        # paper Table 1 column 4 (16.68/8 = 2.085 printed as 2.09)
        for t, sigma in zip(PAPER_CBIT_TYPES, [2.04, 2.09, 2.04, 2.01, 1.99, 1.97]):
            assert t.area_per_bit == pytest.approx(sigma, abs=0.006)

    def test_per_bit_cost_trend(self):
        """Figure 4's economy: σ falls from d2 up to d6."""
        sigmas = [t.area_per_bit for t in PAPER_CBIT_TYPES[1:]]
        assert sigmas == sorted(sigmas, reverse=True)

    def test_testing_time_exponential(self):
        assert PAPER_CBIT_TYPES[0].testing_time == 16
        assert PAPER_CBIT_TYPES[3].testing_time == 65536

class TestSmallestType:
    @pytest.mark.parametrize(
        "width,expect", [(1, 4), (4, 4), (5, 8), (16, 16), (17, 24), (32, 32)]
    )
    def test_selection(self, width, expect):
        assert smallest_type_for(width).length == expect

    def test_too_wide_raises(self):
        with pytest.raises(CBITError):
            smallest_type_for(33)

    def test_negative_raises(self):
        with pytest.raises(CBITError):
            smallest_type_for(-1)


class TestCostForInputs:
    def test_zero_inputs_free(self):
        cost, types = cbit_cost_for_inputs(0)
        assert cost == 0.0 and types == []

    def test_single_type(self):
        cost, types = cbit_cost_for_inputs(16)
        assert [t.name for t in types] == ["d4"]
        assert cost == pytest.approx(32.21)

    def test_cascade_beyond_32(self):
        cost, types = cbit_cost_for_inputs(40)
        assert [t.name for t in types] == ["d6", "d2"]
        assert cost == pytest.approx(63.12 + 16.68)

    def test_large_cascade(self):
        cost, types = cbit_cost_for_inputs(100)
        assert sum(t.length for t in types) >= 100
        assert types[0].name == "d6"

    def test_negative_rejected(self):
        with pytest.raises(CBITError):
            cbit_cost_for_inputs(-2)


class TestAreaEstimate:
    @pytest.mark.parametrize("t", PAPER_CBIT_TYPES)
    def test_model_tracks_published_values(self, t):
        """First-principles estimate within 6% of Table 1."""
        est = estimate_cbit_area_dff(t.length)
        assert est == pytest.approx(t.area_dff, rel=0.06)

    def test_monotone_in_length(self):
        areas = [estimate_cbit_area_dff(l) for l in (4, 8, 12, 16, 24, 32)]
        assert areas == sorted(areas)

    def test_tiny_length_rejected(self):
        with pytest.raises(CBITError):
            estimate_cbit_area_dff(1)
