"""Scalar domains: the rationals and prime fields.

A *scalar domain* is a tiny object bundling field arithmetic so that the
polynomial and extension-field code can stay generic.  Elements are plain
Python values (Fraction for QQ, int for Zmod); all arithmetic goes through
the domain's methods, never through ad-hoc operator use, so that ints mod p
are always reduced.

Domains are immutable and interned where it matters (Zmod(p) is cached),
so they are safe to share between threads.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache


class QQ:
    """The field of rational numbers; elements are fractions.Fraction."""

    char = 0
    zero = Fraction(0)
    one = Fraction(1)

    def of(self, v) -> Fraction:
        return Fraction(v)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in QQ")
        return 1 / Fraction(a)

    def is_zero(self, a) -> bool:
        return a == 0

    def render(self, a) -> str:
        return str(a)

    def __repr__(self):
        return "QQ"

    def __eq__(self, other):
        return isinstance(other, QQ)

    def __hash__(self):
        return hash("QQ")


QQ_DOMAIN = QQ()


class Zmod:
    """The prime field Z/p; elements are ints in range(p)."""

    def __init__(self, p: int):
        if p < 2:
            raise ValueError(f"modulus must be >= 2, got {p}")
        for d in range(2, int(p**0.5) + 1):
            if p % d == 0:
                raise ValueError(f"{p} is not prime")
        self.p = p
        self.char = p
        self.zero = 0
        self.one = 1 % p

    def of(self, v) -> int:
        if isinstance(v, Fraction):
            if v.denominator % self.p == 0:
                raise ValueError(f"{v} has no residue mod {self.p}")
            return (v.numerator * self.inv(v.denominator % self.p)) % self.p
        return int(v) % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def inv(self, a):
        a %= self.p
        if a == 0:
            raise ZeroDivisionError(f"inverse of 0 in Z/{self.p}")
        return pow(a, self.p - 2, self.p)

    def is_zero(self, a) -> bool:
        return a % self.p == 0

    def elements(self):
        return range(self.p)

    def size(self) -> int:
        return self.p

    def render(self, a) -> str:
        return str(a % self.p)

    def __repr__(self):
        return f"Zmod({self.p})"

    def __eq__(self, other):
        return isinstance(other, Zmod) and other.p == self.p

    def __hash__(self):
        return hash(("Zmod", self.p))


@lru_cache(maxsize=None)
def zmod(p: int) -> Zmod:
    return Zmod(p)
