"""Extension fields as quotients base[x]/(modulus).

ExtField(base, modulus) represents a simple extension of a scalar domain
by a monic polynomial.  Elements are tuples of base-domain scalars of
length deg(modulus) (residue coefficients, lowest degree first).  ExtField
itself satisfies the scalar-domain protocol, so UniPoly works over it;
this is how idempotents over a splitting field are manipulated.

Two instantiations are used throughout:

  GF(p, n)           -- finite field with p^n elements, base Zmod(p)
  NumberField(f)     -- QQ[x]/(f) for monic squarefree f over QQ

Finite-field moduli, when not supplied, are the *smallest* monic
irreducible of the requested degree, where candidates x^n + c_{n-1}x^{n-1}
+ ... + c_0 are ordered by the integer c_0 + c_1 p + ... + c_{n-1}p^{n-1}.
This makes every construction reproducible across runs.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product

from .scalars import QQ_DOMAIN, Zmod, zmod
from .unipoly import UniPoly, poly_divmod, poly_gcd, poly_mod, poly_powmod


class ExtField:
    """base[x]/(modulus) with tuple-of-scalars elements."""

    def __init__(self, base, modulus: UniPoly, name: str | None = None):
        if modulus.dom != base:
            raise ValueError("modulus must be a polynomial over the base domain")
        if not modulus.is_monic() or modulus.degree < 1:
            raise ValueError("modulus must be monic of degree >= 1")
        self.base = base
        self.modulus = modulus
        self.degree = modulus.degree
        self.char = base.char
        n = self.degree
        self.zero = tuple([base.zero] * n)
        one = [base.zero] * n
        one[0] = base.one
        self.one = tuple(one)
        self.name = name or f"{base!r}[x]/({modulus.render()})"

    # -- element constructors ------------------------------------------

    def of(self, v):
        """Embed a base scalar (or int/Fraction) as a constant."""
        out = [self.base.zero] * self.degree
        out[0] = self.base.of(v)
        return tuple(out)

    def gen(self):
        """The residue class of x (a root of the modulus)."""
        if self.degree == 1:
            # x = -c0 as a constant
            return self.of(self.base.neg(self.modulus.coeff(0)))
        out = [self.base.zero] * self.degree
        out[1] = self.base.one
        return tuple(out)

    def from_coeffs(self, coeffs):
        cs = [self.base.of(c) for c in coeffs]
        if len(cs) > self.degree:
            raise ValueError("coefficient vector too long")
        cs += [self.base.zero] * (self.degree - len(cs))
        return tuple(cs)

    def from_poly(self, p: UniPoly):
        """Reduce a base-domain polynomial modulo the modulus."""
        r = poly_mod(p, self.modulus)
        return self.from_coeffs(r.coeffs)

    def to_poly(self, a) -> UniPoly:
        return UniPoly(self.base, a)

    # -- arithmetic -----------------------------------------------------

    def add(self, a, b):
        bd = self.base
        return tuple(bd.add(x, y) for x, y in zip(a, b))

    def sub(self, a, b):
        bd = self.base
        return tuple(bd.sub(x, y) for x, y in zip(a, b))

    def neg(self, a):
        bd = self.base
        return tuple(bd.neg(x) for x in a)

    def mul(self, a, b):
        bd = self.base
        n = self.degree
        if n == 1:
            return (bd.mul(a[0], b[0]),)
        prod_ = [bd.zero] * (2 * n - 1)
        for i, ca in enumerate(a):
            if bd.is_zero(ca):
                continue
            for j, cb in enumerate(b):
                prod_[i + j] = bd.add(prod_[i + j], bd.mul(ca, cb))
        mod = self.modulus.coeffs
        for i in range(2 * n - 2, n - 1, -1):
            c = prod_[i]
            if bd.is_zero(c):
                continue
            prod_[i] = bd.zero
            for j in range(n):
                prod_[i - n + j] = bd.sub(prod_[i - n + j], bd.mul(c, mod[j]))
        return tuple(prod_[:n])

    def inv(self, a):
        """Extended Euclid on (a as polynomial, modulus)."""
        if self.is_zero(a):
            raise ZeroDivisionError(f"inverse of 0 in {self.name}")
        bd = self.base
        r0, r1 = self.modulus, self.to_poly(a)
        s0, s1 = UniPoly.zero(bd), UniPoly.one(bd)
        while not r1.is_zero():
            q, r = poly_divmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, s0 - q * s1
        # r0 = gcd = nonzero constant
        c = bd.inv(r0.coeff(0))
        return self.from_poly(s0.scale(c))

    def power(self, a, e: int):
        if e < 0:
            return self.power(self.inv(a), -e)
        result = self.one
        while e:
            if e & 1:
                result = self.mul(result, a)
            a = self.mul(a, a)
            e >>= 1
        return result

    def is_zero(self, a) -> bool:
        bd = self.base
        return all(bd.is_zero(c) for c in a)

    # -- finite-field extras ---------------------------------------------

    def size(self) -> int:
        return self.base.size() ** self.degree

    def elements(self):
        for tup in product(self.base.elements(), repeat=self.degree):
            yield tup

    def frobenius(self, a, k: int = 1):
        """a^(char^k); only meaningful in positive characteristic."""
        if self.char == 0:
            raise ValueError("Frobenius needs positive characteristic")
        return self.power(a, self.char**k)

    def render(self, a) -> str:
        return self.to_poly(a).render("t")

    def __repr__(self):
        return self.name

    def __eq__(self, other):
        return (
            isinstance(other, ExtField)
            and self.base == other.base
            and self.modulus == other.modulus
        )

    def __hash__(self):
        return hash((self.base, self.modulus))


def _candidates(p: int, n: int):
    """Monic degree-n polynomials over Z/p in deterministic order."""
    dom = zmod(p)
    for code in range(p**n):
        coeffs = []
        c = code
        for _ in range(n):
            coeffs.append(c % p)
            c //= p
        coeffs.append(1)
        yield UniPoly.from_ints(dom, coeffs)


def is_irreducible_ff(f: UniPoly) -> bool:
    """Irreducibility over a finite base field.

    f must be monic of degree >= 1.  Standard criterion: x^(q^n) = x mod f
    and gcd(x^(q^(n/r)) - x, f) = 1 for every prime r dividing n, where q
    is the size of the coefficient field.
    """
    if not f.is_monic():
        raise ValueError("irreducibility test requires a monic polynomial")
    n = f.degree
    if n < 1:
        raise ValueError("degree must be >= 1")
    if n == 1:
        return True
    dom = f.dom
    q = dom.size()
    x = UniPoly.x(dom)
    xq = poly_powmod(x, q**n, f)
    if xq != poly_mod(x, f):
        return False
    primes = set()
    m = n
    d = 2
    while d * d <= m:
        while m % d == 0:
            primes.add(d)
            m //= d
        d += 1
    if m > 1:
        primes.add(m)
    for r in primes:
        g = poly_gcd(poly_powmod(x, q ** (n // r), f) - x, f)
        if g.degree != 0:
            return False
    return True


@lru_cache(maxsize=None)
def smallest_irreducible(p: int, n: int) -> UniPoly:
    """The first irreducible monic degree-n polynomial over Z/p."""
    for f in _candidates(p, n):
        if is_irreducible_ff(f):
            return f
    raise RuntimeError("unreachable: irreducibles exist in every degree")


@lru_cache(maxsize=None)
def GF(p: int, n: int = 1, modulus_ints: tuple[int, ...] | None = None) -> ExtField:
    """The finite field with p^n elements.

    An explicit modulus may be supplied as a tuple of ints (lowest degree
    first, monic); otherwise the smallest irreducible is used.
    """
    dom = zmod(p)
    if modulus_ints is None:
        f = smallest_irreducible(p, n)
    else:
        f = UniPoly.from_ints(dom, modulus_ints)
        if f.degree != n:
            raise ValueError("modulus degree mismatch")
        if not is_irreducible_ff(f):
            raise ValueError(f"{f.render()} is reducible over GF({p})")
    return ExtField(dom, f, name=f"GF({p}^{n})" if n > 1 else f"GF({p})")


def NumberField(f: UniPoly, name: str | None = None) -> ExtField:
    """QQ[x]/(f) for monic f over QQ with gcd(f, f') = 1.

    Irreducibility over QQ is not tested (factorization is out of scope);
    squarefreeness is, which is what nondegeneracy of the trace needs.
    """
    if f.dom != QQ_DOMAIN:
        raise ValueError("NumberField expects a polynomial over QQ")
    if not f.is_monic() or f.degree < 1:
        raise ValueError("defining polynomial must be monic of degree >= 1")
    if poly_gcd(f, f.derivative()).degree != 0:
        raise ValueError("defining polynomial must be squarefree")
    return ExtField(QQ_DOMAIN, f, name=name or f"QQ[x]/({f.render()})")


def roots_in_extension(f: UniPoly, m: int) -> list:
    """All roots of f (over Z/p) in GF(p^m), sorted by coefficient tuple.

    The distinct roots are the linear factors of g = gcd(f, x^q - x),
    q = p^m, split apart deterministically by the trace map (see
    `_split_linear`); no element of GF(p^m) is enumerated.
    """
    if not isinstance(f.dom, Zmod):
        raise ValueError("roots_in_extension expects a polynomial over Z/p")
    return list(_roots_cached(f, m))


@lru_cache(maxsize=None)
def _roots_cached(f: UniPoly, m: int) -> tuple:
    p = f.dom.p
    field = GF(p, m)
    if f.is_zero():
        return tuple(field.elements())
    # g has coefficients in Z/p, so it is found there; only splitting it
    # needs the arithmetic of GF(p^m)
    x = UniPoly.x(f.dom)
    g = poly_gcd(f, poly_powmod(x, field.size(), f) - x)
    lifted = UniPoly(field, [field.of(c) for c in g.coeffs])
    roots = [field.neg(h.coeff(0)) for h in _split_linear(lifted, field)]
    roots.sort()
    return tuple(roots)


def _split_linear(g: UniPoly, field: ExtField) -> list:
    """The monic linear factors of g, a product of distinct ones over field.

    For b in the power basis, T = Tr(b*x) mod g, with Tr(y) = sum_{i<m}
    y^(p^i), interpolates the GF(p)-values Tr(b*r) at the roots r of g.
    The trace form is nondegenerate, so any two roots get different values
    at some b, and there T is not constant.  Such a T gives a splitter s,
    zero at some roots of g and not at others, and gcd(g, s) is a proper
    factor.  For p = 2, s = T.  For odd p, s = (T + t)^((p-1)/2) - 1 for
    some t in GF(p): s(r) = 0 iff T(r) + t is a nonzero square, and as the
    nonzero squares are not closed under adding a nonzero d, some t tells
    two different values apart.
    """
    if g.degree <= 1:
        return [g] if g.degree == 1 else []
    p, m = field.char, field.degree
    one = UniPoly.one(field)
    for j in range(m):
        b = field.from_coeffs([0] * j + [1])
        y = tr = poly_mod(UniPoly(field, (field.zero, b)), g)
        for _ in range(m - 1):
            y = poly_powmod(y, p, g)
            tr = tr + y
        if tr.degree < 1:
            continue
        splitters = [tr] if p == 2 else (
            poly_powmod(tr + one.scale(field.of(t)), (p - 1) // 2, g) - one
            for t in range(p))
        for s in splitters:
            d = poly_gcd(g, s)
            if 0 < d.degree < g.degree:
                return (_split_linear(d, field)
                        + _split_linear(poly_divmod(g, d)[0], field))
    raise ArithmeticError("g is not a product of distinct linear factors")
