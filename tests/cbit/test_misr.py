"""MISR signature analysis."""

import pytest

from repro.cbit import MISR
from repro.errors import CBITError


class TestMISR:
    def test_signature_depends_on_stream(self):
        a = MISR(8, seed=0)
        b = MISR(8, seed=0)
        a.absorb_stream([1, 2, 3])
        b.absorb_stream([1, 2, 4])
        assert a.signature != b.signature

    def test_signature_depends_on_order(self):
        a = MISR(8, seed=0)
        b = MISR(8, seed=0)
        a.absorb_stream([1, 2])
        b.absorb_stream([2, 1])
        assert a.signature != b.signature

    def test_zero_stream_from_zero_seed_stays_zero(self):
        m = MISR(8, seed=0)
        m.absorb_stream([0] * 50)
        assert m.signature == 0

    def test_reset(self):
        m = MISR(6, seed=0)
        m.absorb_stream([7, 9])
        m.reset()
        assert m.signature == 0

    def test_width_validation(self):
        with pytest.raises(CBITError):
            MISR(1)

    def test_linearity_over_gf2(self):
        """MISR is linear: sig(a xor b) from seed 0 = sig(a) xor sig(b)."""
        xs = [3, 5, 9, 12]
        ys = [1, 15, 2, 8]
        sa = MISR(6, seed=0).absorb_stream(xs)
        sb = MISR(6, seed=0).absorb_stream(ys)
        sxor = MISR(6, seed=0).absorb_stream([x ^ y for x, y in zip(xs, ys)])
        assert sxor == sa ^ sb


class TestAliasing:
    def test_measured_aliasing_rate_is_near_2_to_minus_n(self):
        """Empirical aliasing over random error streams ≈ 2^-width."""
        import random

        rng = random.Random(42)
        width, trials, length = 4, 3000, 24
        golden_stream = [rng.randrange(16) for _ in range(length)]
        golden = MISR(width, seed=0).absorb_stream(golden_stream)
        aliased = 0
        for _ in range(trials):
            errs = [rng.randrange(16) for _ in range(length)]
            if all(e == 0 for e in errs):
                continue
            faulty = [g ^ e for g, e in zip(golden_stream, errs)]
            if MISR(width, seed=0).absorb_stream(faulty) == golden:
                aliased += 1
        rate = aliased / trials
        assert rate == pytest.approx(1 / 16, abs=0.03)
