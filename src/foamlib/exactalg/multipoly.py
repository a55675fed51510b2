"""Sparse multivariate polynomials over the rationals.

A monomial is a tuple of (variable, exponent) pairs sorted by variable
name, exponents > 0; the empty tuple is the constant monomial.  A
MultiPoly is an immutable wrapper around {monomial: Fraction} with no zero
coefficients stored.  Printing uses graded-lexicographic term order
(higher total degree first, then lex on variable names), and parse_poly
accepts the same grammar it prints: integer/rational coefficients, `^`,
`*`, named variables, parentheses.
"""

from __future__ import annotations

import re
from fractions import Fraction
from operator import itemgetter
from typing import Iterable, Mapping

Monomial = tuple[tuple[str, int], ...]


def _mono_mul(a: Monomial, b: Monomial) -> Monomial:
    if not a:
        return b
    if not b:
        return a
    # merge two name-sorted tuples
    out = []
    i = j = 0
    la, lb = len(a), len(b)
    while i < la and j < lb:
        va, ea = a[i]
        vb, eb = b[j]
        if va == vb:
            out.append((va, ea + eb))
            i += 1
            j += 1
        elif va < vb:
            out.append(a[i])
            i += 1
        else:
            out.append(b[j])
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return tuple(out)


class MultiPoly:
    """Coefficients are Fraction or int; ints are kept unwrapped since the
    two interoperate exactly and integer paths skip gcd normalization."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Monomial, Fraction] | None = None):
        clean = {}
        if terms:
            for m, c in terms.items():
                if not isinstance(c, (int, Fraction)):
                    c = Fraction(c)
                if c != 0:
                    clean[m] = c
        self.terms = clean

    @classmethod
    def _raw(cls, terms: dict) -> "MultiPoly":
        """Trusted constructor: canonical keys, no zero values."""
        obj = object.__new__(cls)
        obj.terms = terms
        return obj

    # -- constructors ---------------------------------------------------

    @staticmethod
    def const(c) -> "MultiPoly":
        return MultiPoly({(): c if isinstance(c, (int, Fraction)) else Fraction(c)})

    @staticmethod
    def var(name: str) -> "MultiPoly":
        return MultiPoly({((name, 1),): 1})

    @staticmethod
    def zero() -> "MultiPoly":
        return MultiPoly()

    @staticmethod
    def one() -> "MultiPoly":
        return MultiPoly.const(1)

    # -- queries ----------------------------------------------------------

    def variables(self) -> set[str]:
        out = set()
        for m in self.terms:
            for v, _ in m:
                out.add(v)
        return out

    def degree_in(self, var: str) -> int:
        best = 0
        for m in self.terms:
            for v, e in m:
                if v == var and e > best:
                    best = e
        return best

    def total_degree(self) -> int:
        return max((sum(e for _, e in m) for m in self.terms), default=0)

    def constant_value(self) -> Fraction:
        """The value of a constant polynomial."""
        if not self.terms:
            return Fraction(0)
        if set(self.terms) != {()}:
            raise ValueError(f"not a constant polynomial: {self.render()}")
        return self.terms[()]

    def __eq__(self, other):
        return isinstance(other, MultiPoly) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        out = dict(self.terms)
        for m, c in other.terms.items():
            v = out.get(m, 0) + c
            if v:
                out[m] = v
            elif m in out:
                del out[m]
        return MultiPoly._raw(out)

    def __neg__(self) -> "MultiPoly":
        return MultiPoly._raw({m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        out = dict(self.terms)
        for m, c in other.terms.items():
            v = out.get(m, 0) - c
            if v:
                out[m] = v
            elif m in out:
                del out[m]
        return MultiPoly._raw(out)

    def __mul__(self, other: "MultiPoly") -> "MultiPoly":
        if not self.terms or not other.terms:
            return MultiPoly()
        out: dict[Monomial, Fraction] = {}
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                m = _mono_mul(ma, mb)
                out[m] = out.get(m, 0) + ca * cb
        return MultiPoly._raw({m: c for m, c in out.items() if c})

    def scale(self, c) -> "MultiPoly":
        if not isinstance(c, (int, Fraction)):
            c = Fraction(c)
        if c == 0:
            return MultiPoly()
        return MultiPoly._raw({m: c * v for m, v in self.terms.items()})

    def __pow__(self, e: int) -> "MultiPoly":
        if e < 0:
            raise ValueError("negative power")
        out = MultiPoly.one()
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    # -- substitution -----------------------------------------------------

    def eval(self, assignment: Mapping[str, Fraction]) -> Fraction:
        """Exact full evaluation; every variable must be assigned.

        Each power v^e is built once per call; int values stay ints until
        the final Fraction.
        """
        powers: dict[tuple[str, int], object] = {}
        total = 0
        for m, c in self.terms.items():
            acc = c
            for ve in m:
                pw = powers.get(ve)
                if pw is None:
                    v, e = ve
                    if v not in assignment:
                        raise KeyError(f"variable {v!r} not assigned")
                    x = assignment[v]
                    if not isinstance(x, (int, Fraction)):
                        x = Fraction(x)
                    pw = powers[ve] = x ** e
                acc *= pw
            total += acc
        return Fraction(total)

    def subs_vars(self, mapping: Mapping[str, str]) -> "MultiPoly":
        """Rename variables (used to plug color sets into dot polynomials)."""
        out: dict[Monomial, Fraction] = {}
        for m, c in self.terms.items():
            d: dict[str, int] = {}
            for v, e in m:
                w = mapping.get(v, v)
                d[w] = d.get(w, 0) + e
            mm = tuple(sorted(d.items()))
            out[mm] = out.get(mm, 0) + c
        return MultiPoly(out)

    # -- printing --------------------------------------------------------

    def render(self) -> str:
        if not self.terms:
            return "0"
        # graded: higher degree first; then lex on (name, -exponent) pairs.
        # Each distinct pair is ranked once in that order and written once,
        # so a sort key is the degree and a tuple of small ints.
        distinct = sorted({pair for m in self.terms for pair in m},
                          key=lambda pair: (pair[0], -pair[1]))
        rank = {pair: i for i, pair in enumerate(distinct)}.__getitem__
        text = {(v, e): v if e == 1 else f"{v}^{e}" for v, e in distinct}.__getitem__
        exponent = itemgetter(1)

        parts = []
        for m in sorted(self.terms, key=lambda m: (-sum(map(exponent, m)),
                                                   tuple(map(rank, m)))):
            c = self.terms[m]
            neg = c < 0
            c = abs(c)
            if not m:
                body = str(c)
            elif c == 1:
                body = "*".join(map(text, m))
            else:
                body = str(c) + "*" + "*".join(map(text, m))
            if not parts:
                parts.append(("-" if neg else "") + body)
            else:
                parts.append(("- " if neg else "+ ") + body)
        return " ".join(parts)

    def __repr__(self):
        return f"MultiPoly({self.render()})"


def esym(variables: Iterable[str], k: int) -> MultiPoly:
    """Elementary symmetric polynomial e_k of the named variables."""
    vs = list(variables)
    if not 0 <= k <= len(vs):
        raise ValueError(f"e_{k} undefined for {len(vs)} variables")
    e = [MultiPoly.one()] + [MultiPoly.zero()] * k
    for v in vs:
        vp = MultiPoly.var(v)
        for j in range(min(k, len(e) - 1), 0, -1):
            e[j] = e[j] + vp * e[j - 1]
    return e[k]


def is_symmetric(p: MultiPoly, variables: list[str]) -> bool:
    """Invariance under adjacent transpositions of the listed variables."""
    for i in range(len(variables) - 1):
        a, b = variables[i], variables[i + 1]
        if p.subs_vars({a: b, b: a}) != p:
            return False
    return True


_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+)|(?P<var>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[-+*^()/]))"
)


def _tokenize(text: str):
    pos = 0
    out = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            raise ValueError(f"cannot parse {text!r} at position {pos}")
        if m.group("num"):
            out.append(("num", int(m.group("num"))))
        elif m.group("var"):
            out.append(("var", m.group("var")))
        else:
            out.append(("op", m.group("op")))
        pos = m.end()
    return out


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.i = 0

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else (None, None)

    def take(self):
        tok = self.peek()
        self.i += 1
        return tok

    def expr(self) -> MultiPoly:
        kind, val = self.peek()
        sign = 1
        while kind == "op" and val in "+-":
            self.take()
            if val == "-":
                sign = -sign
            kind, val = self.peek()
        out = self.term().scale(sign)
        while True:
            kind, val = self.peek()
            if kind == "op" and val in "+-":
                self.take()
                nxt = self.term()
                out = out + (nxt if val == "+" else -nxt)
            else:
                return out

    def term(self) -> MultiPoly:
        out = self.factor()
        while True:
            kind, val = self.peek()
            if kind == "op" and val == "*":
                self.take()
                out = out * self.factor()
            else:
                return out

    def factor(self) -> MultiPoly:
        base = self.atom()
        kind, val = self.peek()
        if kind == "op" and val == "^":
            self.take()
            kind, e = self.take()
            if kind != "num":
                raise ValueError("exponent must be a nonnegative integer")
            return base**e
        return base

    def atom(self) -> MultiPoly:
        kind, val = self.take()
        if kind == "num":
            # rational literal p/q
            k2, v2 = self.peek()
            if k2 == "op" and v2 == "/":
                self.take()
                k3, v3 = self.take()
                if k3 != "num" or v3 == 0:
                    raise ValueError("expected a nonzero integer after '/'")
                return MultiPoly.const(Fraction(val, v3))
            return MultiPoly.const(val)
        if kind == "var":
            return MultiPoly.var(val)
        if kind == "op" and val == "(":
            inner = self.expr()
            kind, val = self.take()
            if (kind, val) != ("op", ")"):
                raise ValueError("unbalanced parentheses")
            return inner
        if kind == "op" and val == "-":
            return -self.factor()
        raise ValueError(f"unexpected token {val!r}")


def parse_poly(text: str) -> MultiPoly:
    """Parse the canonical polynomial grammar into a MultiPoly over QQ."""
    parser = _Parser(_tokenize(text))
    out = parser.expr()
    if parser.i != len(parser.tokens):
        raise ValueError(f"trailing input in {text!r}")
    return out


def parse_unipoly(text: str, dom):
    """Parse a polynomial in x and map coefficients into dom."""
    from .unipoly import UniPoly

    p = parse_poly(text)
    extra = p.variables() - {"x"}
    if extra:
        raise ValueError(f"unexpected variables {sorted(extra)} (wanted only 'x')")
    coeffs = [dom.zero] * (p.degree_in("x") + 1)
    for m, c in p.terms.items():
        e = m[0][1] if m else 0
        coeffs[e] = dom.add(coeffs[e], dom.of(c))
    return UniPoly(dom, coeffs)
