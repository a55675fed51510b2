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

A finite field of degree >= 2 with at most TABLE_BOUND (2^10) elements
keeps one pair of discrete-log tables, built once when the field is made
(Lidl & Niederreiter, Finite Fields, ch. 9): exp[i] = g^i, stored twice
over so that a product needs no reduction of its index, and log[g^i] = i,
for g the first element in elements() order of multiplicative order
q - 1.  x itself need not be primitive (it is not in GF(3^2)).  A product
is exp[log a + log b], an inverse exp[-log a mod (q - 1)] and a power
exp[e log a mod (q - 1)].  Zero has no log: a product with it is zero,
its inverse raises ZeroDivisionError, and 0^0 = 1.  A tuple that is not a
canonical element (an entry outside range(p)) has no log either and takes
the schoolbook product, so it is never mistaken for zero.  The bound
keeps the build, by q - 2 schoolbook products, to about 12 ms and 0.2 MB
for the largest field.  Number fields over QQ, GF(p) itself and fields
above the bound (a user tower descriptor or `mf --char p` can ask for one)
keep the schoolbook product, which is also the tests' reference.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product

from .scalars import QQ_DOMAIN, Zmod, zmod
from .unipoly import UniPoly, poly_divmod, poly_gcd, poly_mod, poly_powmod

# Fields of degree >= 2 over GF(p) with at most this many elements multiply,
# invert and raise to powers through log/antilog tables.  Built by repeated
# multiplication, the tables of GF(2^10) take about 12 ms and 0.2 MB (2 vCPUs
# of a shared Xeon, Python 3.11); the cost grows with q, and a larger field
# would spend more on its build than most runs spend on its products.
TABLE_BOUND = 2**10


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
        # x^n = -sum_j m_j x^j: the nonzero m_j, the only terms mul reduces by
        self._tail = tuple((j, m) for j, m in enumerate(modulus.coeffs[:n]) if m)
        self.name = name or f"{base!r}[x]/({modulus.render()})"
        self._log = None
        if isinstance(base, Zmod) and n >= 2 and self.size() <= TABLE_BOUND:
            self._build_tables()

    def _build_tables(self):
        """exp[i] = g^i (twice over) and log[g^i] = i, g a primitive element.

        g is the first element, in elements() order, of multiplicative order
        q - 1: g^(q-1) = 1 and g^((q-1)/r) != 1 for every prime r | q - 1.
        A reducible modulus has no such element and keeps the schoolbook
        product.
        """
        units = self.size() - 1
        primes = _prime_factors(units)
        for g in self.elements():
            if (g != self.zero and self.power(g, units) == self.one
                    and all(self.power(g, units // r) != self.one for r in primes)):
                break
        else:
            return
        exp = [self.one]
        for _ in range(units - 1):
            exp.append(self._schoolbook_mul(exp[-1], g))
        self._units = units
        self._exp = exp + exp  # log a + log b < 2(q - 1): no modulo in mul
        self._log = {a: i for i, a in enumerate(exp)}

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
        of = self.base.of
        return tuple([of(x + y) for x, y in zip(a, b)])

    def sub(self, a, b):
        of = self.base.of
        return tuple([of(x - y) for x, y in zip(a, b)])

    def neg(self, a):
        bd = self.base
        return tuple(bd.neg(x) for x in a)

    def mul(self, a, b):
        log = self._log
        if log is not None:
            try:
                return self._exp[log[a] + log[b]]
            except KeyError:
                if a == self.zero or b == self.zero:
                    return self.zero
        return self._schoolbook_mul(a, b)

    def _schoolbook_mul(self, a, b):
        # The product for fields without tables and for tuples that are not
        # canonical elements.  The base is Zmod (int elements) or QQ
        # (Fraction elements), so the product and the reduction run on plain
        # operators, and each output coefficient is reduced once through
        # base.of.
        n = self.degree
        if n == 1:
            return (self.base.mul(a[0], b[0]),)
        of = self.base.of
        prod_ = [0] * (2 * n - 1)
        for i, ca in enumerate(a):
            if ca:
                for k, cb in enumerate(b, i):
                    prod_[k] += ca * cb
        for i in range(2 * n - 2, n - 1, -1):
            c = prod_[i]
            if c:
                for j, m in self._tail:
                    prod_[i - n + j] -= c * m
        return tuple(map(of, prod_[:n]))

    def inv(self, a):
        """A table lookup, else extended Euclid on (a as polynomial, modulus)."""
        if self._log is not None and a in self._log:
            return self._exp[-self._log[a] % self._units]
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
        if self._log is not None and a in self._log:
            return self._exp[self._log[a] * e % self._units]
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


def _prime_factors(m: int) -> list[int]:
    """The distinct primes dividing m >= 1, by trial division."""
    primes = []
    d = 2
    while d * d <= m:
        if m % d == 0:
            primes.append(d)
            while m % d == 0:
                m //= d
        d += 1
    if m > 1:
        primes.append(m)
    return primes


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
    for r in _prime_factors(n):
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


def NumberField(f: UniPoly) -> ExtField:
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
    return ExtField(QQ_DOMAIN, f, name=f"QQ[x]/({f.render()})")


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
