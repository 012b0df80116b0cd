"""Coefficient fields: the rationals and prime fields GF(p).

A ``CoefficientField`` holds the domain only: the characteristic, the
coercion of outside values into the field, zero, one and inverses.
Rational coefficients are ``fractions.Fraction`` values; prime-field
coefficients are plain ints in ``[0, p)``.  Arithmetic is Python's
``+``, ``-`` and ``*`` on those values, and over GF(p) the caller takes
each result ``% p``.  All of it is exact; there is no floating-point path
anywhere in the package, and a float given as a coefficient is rejected.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction


# Miller-Rabin with the first 13 primes as bases is exact below this bound
# (Sorenson & Webster, 2015); larger characteristics are rejected.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MAX_CHARACTERISTIC = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test for n < MAX_CHARACTERISTIC."""
    if n < 2:
        return False
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class CoefficientField:
    """Either the rationals (``p is None``) or GF(p) for a prime p."""

    p: int | None = None

    def __post_init__(self):
        if self.p is not None and self.p >= MAX_CHARACTERISTIC:
            raise ValueError(f"prime field characteristic must be below "
                             f"{MAX_CHARACTERISTIC}, got {self.p}")
        if self.p is not None and not _is_prime(self.p):
            raise ValueError(f"prime field characteristic must be prime, got {self.p}")

    @property
    def characteristic(self) -> int:
        return 0 if self.p is None else self.p

    def coerce(self, value):
        """Normalize an int, Fraction, or string like '2/3' into the field;
        anything else, a float included, is a TypeError."""
        if type(value) is not int:      # an int skips Fraction's ABC checks
            value = (Fraction(value) if isinstance(value, (str, Fraction))
                     else operator.index(value))
        if self.p is None:
            return Fraction(value)
        if type(value) is int:
            return value % self.p
        if value.denominator % self.p == 0:
            raise ZeroDivisionError(f"denominator divisible by {self.p}")
        return value.numerator * pow(value.denominator, -1, self.p) % self.p

    def zero(self):
        return Fraction(0) if self.p is None else 0

    def one(self):
        return Fraction(1) if self.p is None else 1

    def inv(self, a):
        if not a:
            raise ZeroDivisionError("inverse of zero")
        return 1 / a if self.p is None else pow(a, -1, self.p)

    def __str__(self):
        return "Q" if self.p is None else f"GF({self.p})"


QQ = CoefficientField()


def GF(p: int) -> CoefficientField:
    return CoefficientField(p)
