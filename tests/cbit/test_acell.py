"""A_CELL variants (Figure 3)."""

import pytest

from repro.cbit import ACellVariant, acell_area_dff


class TestVariantAreas:
    def test_fresh(self):
        assert acell_area_dff(ACellVariant.FRESH) == pytest.approx(1.9)

    def test_retimed(self):
        assert acell_area_dff(ACellVariant.RETIMED) == pytest.approx(0.9)

    def test_muxed(self):
        assert acell_area_dff(ACellVariant.MUXED) == pytest.approx(2.3)
