"""GF(2) polynomial arithmetic and the primitive polynomial table."""

import pytest

from repro.cbit import (
    MAXIMAL_LFSR_TAPS,
    feedback_taps,
    is_irreducible,
    is_primitive,
    poly_degree,
    primitive_polynomial,
)
from repro.cbit.polynomials import poly_mul_mod, poly_pow_mod
from repro.errors import CBITError


class TestArithmetic:
    def test_mul_mod_basic(self):
        # (x+1)(x+1) = x^2+1 ≡ x (mod x^2+x+1)
        assert poly_mul_mod(0b11, 0b11, 0b111) == 0b10

    def test_pow_mod(self):
        # x^3 mod x^2+x+1: x^2=x+1 -> x^3 = x^2+x = 1
        assert poly_pow_mod(0b10, 3, 0b111) == 1

    def test_degree_and_weight(self):
        p = primitive_polynomial(8)
        assert poly_degree(p) == 8
        assert bin(p).count("1") == 5  # x^8+x^6+x^5+x^4+1

    def test_feedback_taps(self):
        assert feedback_taps(primitive_polynomial(4)) == [3]
        assert feedback_taps(primitive_polynomial(8)) == [4, 5, 6]


class TestIrreducibility:
    def test_known_irreducible(self):
        assert is_irreducible(0b111)  # x^2+x+1
        assert is_irreducible(0b1011)  # x^3+x+1

    def test_known_reducible(self):
        assert not is_irreducible(0b101)  # x^2+1 = (x+1)^2
        assert not is_irreducible(0b110)  # x^2+x = x(x+1)

    def test_degree_zero_not_irreducible(self):
        assert not is_irreducible(0b1)


class TestPrimitivity:
    def test_known_primitive(self):
        assert is_primitive(0b111)  # x^2+x+1
        assert is_primitive(0b11001)  # x^4+x^3+1

    def test_irreducible_but_not_primitive(self):
        # x^4+x^3+x^2+x+1 divides x^5-1: order 5 < 15
        assert is_irreducible(0b11111)
        assert not is_primitive(0b11111)

    def test_reducible_not_primitive(self):
        assert not is_primitive(0b101)

    @pytest.mark.parametrize("degree", sorted(MAXIMAL_LFSR_TAPS))
    def test_entire_table_is_primitive(self, degree):
        """Verify every tabulated polynomial from first principles."""
        assert is_primitive(primitive_polynomial(degree))

    def test_table_covers_2_through_32(self):
        assert sorted(MAXIMAL_LFSR_TAPS) == list(range(2, 33))

    def test_unknown_degree_raises(self):
        with pytest.raises(CBITError):
            primitive_polynomial(33)
        with pytest.raises(CBITError):
            primitive_polynomial(1)
