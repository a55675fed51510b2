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
        return v if type(v) is Fraction else Fraction(v)

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


# Miller-Rabin on these bases decides primality exactly for every n below
# the bound (Sorenson and Webster, "Strong pseudoprimes to twelve prime
# bases", Math. Comp. 86 (2017)).
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_BOUND = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Deterministic primality for n < PRIME_BOUND; ValueError above it."""
    if n >= PRIME_BOUND:
        raise ValueError(f"cannot certify a {len(str(n))}-digit modulus prime: "
                         f"moduli must be below {PRIME_BOUND}")
    if n < 2:
        return False
    for b in _PRIME_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _PRIME_BASES:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Zmod:
    """The prime field Z/p; elements are ints in range(p)."""

    def __init__(self, p: int):
        if p < 2:
            raise ValueError(f"modulus must be >= 2, got {p}")
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.char = p
        self.zero = 0
        self.one = 1 % p

    def of(self, v) -> int:
        if type(v) is int:  # the common case; isinstance on Fraction is slow
            return v % self.p
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
