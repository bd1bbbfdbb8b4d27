"""Primitive feedback polynomials over GF(2) for CBIT/LFSR construction.

A CBIT in TPG mode is a maximal-length LFSR; its feedback polynomial must
be *primitive* so the register cycles through all ``2^n - 1`` non-zero
states (plus the all-zero state injected by the A_CELL's NOR term — see
:mod:`repro.cbit.lfsr`).  This module provides:

* a vetted table of minimal-tap primitive polynomials for degrees 2–32
  (the classic maximal-LFSR tap table);
* full primitivity testing (irreducibility via Rabin's test + order check
  against the prime factorization of ``2^n − 1``), used by the test suite
  to verify every table entry from first principles.

Polynomials are encoded as Python ints: bit ``i`` is the coefficient of
``x^i`` (so ``x^4 + x^3 + 1`` is ``0b11001`` = 25).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, List, Tuple

from ..errors import CBITError

__all__ = [
    "MAXIMAL_LFSR_TAPS",
    "primitive_polynomial",
    "poly_degree",
    "feedback_taps",
    "poly_mul_mod",
    "poly_pow_mod",
    "is_irreducible",
    "is_primitive",
]

#: Maximal-length LFSR tap positions per register length (degree).  Each
#: entry lists the exponents (including the degree itself) whose sum with
#: the constant 1 forms the characteristic polynomial.
MAXIMAL_LFSR_TAPS: Dict[int, Tuple[int, ...]] = {
    2: (2, 1),
    3: (3, 2),
    4: (4, 3),
    5: (5, 3),
    6: (6, 5),
    7: (7, 6),
    8: (8, 6, 5, 4),
    9: (9, 5),
    10: (10, 7),
    11: (11, 9),
    12: (12, 6, 4, 1),
    13: (13, 4, 3, 1),
    14: (14, 5, 3, 1),
    15: (15, 14),
    16: (16, 15, 13, 4),
    17: (17, 14),
    18: (18, 11),
    19: (19, 6, 2, 1),
    20: (20, 17),
    21: (21, 19),
    22: (22, 21),
    23: (23, 18),
    24: (24, 23, 22, 17),
    25: (25, 22),
    26: (26, 6, 2, 1),
    27: (27, 5, 2, 1),
    28: (28, 25),
    29: (29, 27),
    30: (30, 6, 4, 1),
    31: (31, 28),
    32: (32, 22, 2, 1),
}


def primitive_polynomial(degree: int) -> int:
    """The library's canonical primitive polynomial of ``degree``.

    >>> bin(primitive_polynomial(4))
    '0b11001'
    """
    try:
        taps = MAXIMAL_LFSR_TAPS[degree]
    except KeyError:
        raise CBITError(
            f"no primitive polynomial tabulated for degree {degree}; "
            f"supported degrees are 2..32"
        ) from None
    poly = 1  # the +1 term
    for t in taps:
        poly |= 1 << t
    return poly


def poly_degree(poly: int) -> int:
    """Degree of a GF(2) polynomial (``-1`` for the zero polynomial)."""
    return poly.bit_length() - 1


def feedback_taps(poly: int) -> List[int]:
    """Exponents of the non-constant, non-leading terms (the XOR taps)."""
    deg = poly_degree(poly)
    return [i for i in range(1, deg) if (poly >> i) & 1]


def poly_mul_mod(a: int, b: int, mod: int) -> int:
    """``a·b mod m`` in GF(2)[x]."""
    deg = poly_degree(mod)
    result = 0
    while b:
        if b & 1:
            result ^= a
        b >>= 1
        a <<= 1
        if poly_degree(a) >= deg:
            a ^= mod
    return result


def poly_pow_mod(base: int, exponent: int, mod: int) -> int:
    """``base^exponent mod m`` in GF(2)[x] by square-and-multiply."""
    result = 1
    base %= 1 << (poly_degree(mod) + 1)
    while exponent:
        if exponent & 1:
            result = poly_mul_mod(result, base, mod)
        base = poly_mul_mod(base, base, mod)
        exponent >>= 1
    return result


def _poly_gcd(a: int, b: int) -> int:
    while b:
        deg_a, deg_b = poly_degree(a), poly_degree(b)
        if deg_a < deg_b:
            a, b = b, a
            continue
        a ^= b << (deg_a - deg_b)
    return a


@lru_cache(maxsize=None)
def _prime_factors(n: int) -> Tuple[int, ...]:
    """Distinct prime factors by trial division (fine for n ≤ 2^32)."""
    factors = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            factors.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        factors.append(n)
    return tuple(factors)


def is_irreducible(poly: int) -> bool:
    """Rabin's irreducibility test over GF(2).

    ``poly`` is irreducible iff ``x^(2^n) ≡ x (mod poly)`` and for every
    prime divisor ``q`` of ``n``, ``gcd(x^(2^(n/q)) − x, poly) = 1``.
    """
    n = poly_degree(poly)
    if n <= 0:
        return False
    if not poly & 1:  # divisible by x
        return n == 1 and poly == 0b10
    x = 0b10
    if poly_pow_mod(x, 1 << n, poly) != x:
        return False
    for q in _prime_factors(n):
        h = poly_pow_mod(x, 1 << (n // q), poly) ^ x
        if _poly_gcd(poly, h) != 1:
            return False
    return True


def is_primitive(poly: int) -> bool:
    """True iff ``poly`` is primitive over GF(2).

    Primitive ⇔ irreducible and the root's multiplicative order equals
    ``2^n − 1``: checked via ``x^((2^n−1)/q) ≠ 1`` for every prime ``q``
    dividing ``2^n − 1``.
    """
    n = poly_degree(poly)
    if n < 1:
        return False
    if n == 1:
        return poly == 0b11  # x + 1
    if not is_irreducible(poly):
        return False
    order = (1 << n) - 1
    x = 0b10
    for q in _prime_factors(order):
        if poly_pow_mod(x, order // q, poly) == 1:
            return False
    return True
