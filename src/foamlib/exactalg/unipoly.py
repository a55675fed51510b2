"""Univariate polynomials over a scalar domain.

A UniPoly is an immutable tuple of coefficients, lowest degree first,
with trailing zeros stripped.  The zero polynomial has an empty tuple and
degree -1.  Coefficients live in a scalar domain (see scalars.py) or in an
extension field (see ffield.py), both of which expose the same arithmetic
methods.
"""

from __future__ import annotations

from typing import Sequence


class UniPoly:
    __slots__ = ("dom", "coeffs")

    def __init__(self, dom, coeffs: Sequence):
        n = len(coeffs)
        while n > 0 and dom.is_zero(coeffs[n - 1]):
            n -= 1
        self.dom = dom
        self.coeffs = tuple(coeffs[:n])

    # -- constructors ------------------------------------------------

    @staticmethod
    def zero(dom) -> "UniPoly":
        return UniPoly(dom, ())

    @staticmethod
    def one(dom) -> "UniPoly":
        return UniPoly(dom, (dom.one,))

    @staticmethod
    def x(dom) -> "UniPoly":
        return UniPoly(dom, (dom.zero, dom.one))

    @staticmethod
    def const(dom, c) -> "UniPoly":
        return UniPoly(dom, (dom.of(c),))

    @staticmethod
    def from_ints(dom, ints: Sequence[int]) -> "UniPoly":
        return UniPoly(dom, [dom.of(c) for c in ints])

    # -- basic queries -----------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == self.dom.one

    def leading(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, i: int):
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else self.dom.zero

    def __eq__(self, other):
        return (
            isinstance(other, UniPoly)
            and self.dom == other.dom
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.dom, self.coeffs))

    # -- ring operations ---------------------------------------------

    def __add__(self, other: "UniPoly") -> "UniPoly":
        dom = self.dom
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = dom.add(out[i], c)
        return UniPoly(dom, out)

    def __neg__(self) -> "UniPoly":
        dom = self.dom
        return UniPoly(dom, [dom.neg(c) for c in self.coeffs])

    def __sub__(self, other: "UniPoly") -> "UniPoly":
        return self + (-other)

    def __mul__(self, other: "UniPoly") -> "UniPoly":
        dom = self.dom
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return UniPoly.zero(dom)
        out = [dom.zero] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if dom.is_zero(ca):
                continue
            for j, cb in enumerate(b):
                out[i + j] = dom.add(out[i + j], dom.mul(ca, cb))
        return UniPoly(dom, out)

    def scale(self, c) -> "UniPoly":
        dom = self.dom
        return UniPoly(dom, [dom.mul(c, a) for a in self.coeffs])

    def shift(self, k: int) -> "UniPoly":
        """Multiply by x^k."""
        if not self.coeffs:
            return self
        return UniPoly(self.dom, (self.dom.zero,) * k + self.coeffs)

    def __pow__(self, e: int) -> "UniPoly":
        if e < 0:
            raise ValueError("negative power of a polynomial")
        result = UniPoly.one(self.dom)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def derivative(self) -> "UniPoly":
        dom = self.dom
        out = []
        for i in range(1, len(self.coeffs)):
            c = self.coeffs[i]
            acc = dom.zero
            for _ in range(i):
                acc = dom.add(acc, c)
            out.append(acc)
        return UniPoly(dom, out)

    def eval(self, v):
        """Horner evaluation at a domain element."""
        dom = self.dom
        acc = dom.zero
        for c in reversed(self.coeffs):
            acc = dom.add(dom.mul(acc, v), c)
        return acc

    def monic(self) -> "UniPoly":
        if self.is_zero():
            raise ValueError("cannot normalize the zero polynomial")
        lead = self.leading()
        if lead == self.dom.one:
            return self
        return self.scale(self.dom.inv(lead))

    def render(self, var: str = "x") -> str:
        dom = self.dom
        if not self.coeffs:
            return "0"
        parts = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if dom.is_zero(c):
                continue
            s = dom.render(c)
            neg = s.startswith("-")
            if neg:
                s = s[1:]
            if i == 0:
                term = s
            else:
                xs = var if i == 1 else f"{var}^{i}"
                term = xs if s == "1" else f"{s}*{xs}"
            if not parts:
                parts.append(("-" if neg else "") + term)
            else:
                parts.append(("- " if neg else "+ ") + term)
        return " ".join(parts)

    def __repr__(self):
        return f"UniPoly({self.render()})"


def poly_divmod(a: UniPoly, b: UniPoly) -> tuple[UniPoly, UniPoly]:
    """Division with remainder: a = q*b + r with deg r < deg b.

    Coefficients must lie in a field; b must be nonzero.
    """
    if a.dom != b.dom:
        raise ValueError("polynomials over different domains")
    if b.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    dom = a.dom
    rem = list(a.coeffs)
    db = b.degree
    monic = b.leading() == dom.one
    inv_lead = None if monic else dom.inv(b.leading())
    low = b.coeffs[:db]
    quot = [dom.zero] * max(len(rem) - db, 0)
    for i in range(len(rem) - 1, db - 1, -1):
        c = rem[i]
        if dom.is_zero(c):
            continue
        q = c if monic else dom.mul(c, inv_lead)
        quot[i - db] = q
        # rem[i] becomes zero and is not read again
        for j, cb in enumerate(low):
            rem[i - db + j] = dom.sub(rem[i - db + j], dom.mul(q, cb))
    return UniPoly(dom, quot), UniPoly(dom, rem[:db])


def poly_mod(a: UniPoly, b: UniPoly) -> UniPoly:
    return poly_divmod(a, b)[1]


def poly_gcd(a: UniPoly, b: UniPoly) -> UniPoly:
    """Monic gcd over a field (gcd(0,0) = 0)."""
    while not b.is_zero():
        a, b = b, poly_mod(a, b)
    return a if a.is_zero() else a.monic()


def poly_powmod(base: UniPoly, e: int, modulus: UniPoly) -> UniPoly:
    if e == 0:
        return UniPoly.one(base.dom)
    base = poly_mod(base, modulus)
    result = None
    while True:
        if e & 1:
            result = base if result is None else poly_mod(result * base, modulus)
        e >>= 1
        if not e:
            return result
        base = poly_mod(base * base, modulus)


def companion_trace(p: UniPoly, f: UniPoly):
    """Trace of the multiplication-by-(p mod f) map on dom[x]/(f).

    f must be monic of degree >= 1.  Computed by summing diagonal entries
    of the multiplication matrix: entry i is the x^i coefficient of
    x^i * p mod f.
    """
    if not f.is_monic():
        raise ValueError("companion_trace requires a monic modulus")
    n = f.degree
    if n < 1:
        raise ValueError("modulus must have degree >= 1")
    dom = f.dom
    cur = poly_mod(p, f)
    total = cur.coeff(0)
    for i in range(1, n):
        cur = poly_mod(cur.shift(1), f)
        total = dom.add(total, cur.coeff(i))
    return total


def elementary_symmetric(k: int, values: Sequence, dom=None):
    """The k-th elementary symmetric function of the given field elements.

    Uses the coefficient-of-t^k in prod (1 + v*t) recurrence, so it needs
    only ring operations.
    """
    values = list(values)
    if dom is None:
        from .scalars import QQ_DOMAIN

        dom = QQ_DOMAIN
    if not 0 <= k <= len(values):
        raise ValueError(f"k={k} out of range for {len(values)} values")
    # e[j] after processing a prefix = e_j of that prefix
    e = [dom.one] + [dom.zero] * k
    for v in values:
        for j in range(min(k, len(e) - 1), 0, -1):
            e[j] = dom.add(e[j], dom.mul(v, e[j - 1]))
    return e[k]
