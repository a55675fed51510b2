"""Sparse multivariate polynomials over the rationals, on packed exponent keys.

A MultiPoly holds a layout (a sorted tuple of k variable names and a word
width w) and one dict from packed key to coefficient (int or Fraction,
never zero).  The key of the monomial prod names[i]^e_i is

    D << (w*k)  +  sum over i of  e_i << (w*(k-1-i)),    D = sum of the e_i:

the total degree in the top field, then the names in order.  Multiplying
monomials adds keys, and the descending order of the keys is graded lex
order, the order `render` prints.  No other module knows this layout.

Width rule: w is the bit length of a bound on D (at least 1), so no
exponent reaches into the next field and a key is no wider than its
degree needs; `var` and `const` take w = 8.  A product re-packs wider
when the bound of its result needs it; nothing wraps.  Operands on
different layouts are re-packed onto the union of the names and the
wider word, so equality and hashing depend on the terms alone.

Nothing is stored decoded.  `terms` is a read-only {((var, exp), ...):
coeff} view that decodes keys as they are read; `render`, `eval`,
`subs_vars` and the degree queries read the fields of the keys.  The
dense kernels work on bare packed dicts over one `packed_layout`;
`sylfoam` builds its sums with them and wraps each by `from_packed`.

parse_poly accepts the grammar render prints: integer/rational
coefficients, `^`, `*`, named variables, parentheses.
"""

from __future__ import annotations

import re
from collections.abc import ItemsView, Iterable, Mapping
from fractions import Fraction
from functools import lru_cache, reduce
from operator import or_

Monomial = tuple[tuple[str, int], ...]


@lru_cache(maxsize=None)
class _Layout:
    """The fields of the packed keys over one name tuple and width."""

    __slots__ = ("names", "width", "mask", "top", "shift", "unit", "fields")

    def __init__(self, names: tuple[str, ...], width: int):
        k = len(names)
        self.names, self.width = names, width
        self.mask = (1 << width) - 1
        self.top = width * k  # the shift of the total degree field
        self.shift = {nm: width * (k - 1 - i) for i, nm in enumerate(names)}
        # the key of the monomial nm, which adds one to nm and to the degree
        self.unit = {nm: (1 << s) + (1 << self.top) for nm, s in self.shift.items()}
        self.fields = tuple((nm, self.mask << s, s) for nm, s in self.shift.items())

    def key(self, mono: Monomial) -> int:
        """The key of a monomial; KeyError if it has none here."""
        degree = sum(e for _, e in mono)
        if degree > self.mask or any(e < 0 for _, e in mono):
            raise KeyError(mono)
        return sum(e << self.shift[v] for v, e in mono) + (degree << self.top)

    def monomial(self, key: int) -> Monomial:
        return tuple([(nm, f >> s) for nm, fm, s in self.fields if (f := key & fm)])


def packed_layout(names: Iterable[str], degree: int) -> _Layout:
    """The layout over the sorted names for total degrees up to `degree`."""
    return _Layout(tuple(sorted(names)), max(degree.bit_length(), 1))


def _move(packed: dict, src: _Layout, dst: _Layout, rename=None) -> dict:
    """The keys of `packed` moved from src onto dst, each name to its image
    under `rename`; images may coincide, and then exponents add.  Names
    dst lacks are skipped (the caller knows them unused), and dst's width
    must hold the total degree."""
    if not packed or src is dst and not rename:
        return packed
    moves = [(fm, s, dst.shift[t]) for nm, fm, s in src.fields
             if (t := rename.get(nm, nm) if rename else nm) in dst.shift]
    stop, dtop = src.top, dst.top
    out: dict[int, object] = {}
    for k, c in packed.items():
        n = (k >> stop) << dtop
        for fm, s, t in moves:
            f = k & fm
            if f:
                n += (f >> s) << t
        out[n] = out.get(n, 0) + c
    return {k: c for k, c in out.items() if c}


# ---------------------------------------------------------------------------
# Dense kernels on packed dicts over one layout


def _dense_mul_linear(d: dict, layout: _Layout, u: str, v: str) -> dict:
    """d times (u - v); no zero coefficient out if none goes in."""
    # shifting keys is injective, so the u half needs no lookups; a key of
    # the -v half meets at most one u-half key, and is dropped if it cancels
    bu, bv = layout.unit[u], layout.unit[v]
    out = {k + bu: c for k, c in d.items()}
    get = out.get
    for k, c in d.items():
        k += bv
        c = get(k, 0) - c
        if c:
            out[k] = c
        else:
            out.pop(k, None)
    return out


def _dense_mul(d1: dict, d2: dict) -> dict:
    out: dict[int, object] = {}
    for k1, c1 in d1.items():
        for k2, c2 in d2.items():
            k = k1 + k2
            out[k] = out.get(k, 0) + c1 * c2
    return {k: c for k, c in out.items() if c}


def _dense_divexact_linear(d: dict, layout: _Layout, u: str, v: str) -> dict:
    """Exact synthetic division by (u - v); ArithmeticError on a remainder."""
    if not d:
        return {}
    su, mask = layout.shift[u], layout.mask
    bu, bv = layout.unit[u], layout.unit[v]
    # keys are distinct, so each (u-degree, rest) slot is filled once
    by_deg: dict[int, dict[int, object]] = {}
    for k, c in d.items():
        e = (k >> su) & mask
        try:
            by_deg[e][k - e * bu] = c
        except KeyError:
            by_deg[e] = {k - e * bu: c}
    quot: dict[int, object] = {}
    carry: dict[int, object] = {}  # no zero values
    for e in range(max(by_deg), 0, -1):
        level = by_deg.get(e)
        if level:
            get = carry.get
            for k, c in level.items():
                c += get(k, 0)
                if c:
                    carry[k] = c
                else:
                    carry.pop(k, None)
        # carry now holds the quotient coefficient of u^(e-1)
        base = (e - 1) * bu
        quot.update({base + k: c for k, c in carry.items()})
        carry = {k + bv: c for k, c in carry.items()}
    # the remainder, level 0 plus the carry, must vanish
    rem = by_deg.get(0, {})
    if (any(c + rem.get(k, 0) for k, c in carry.items())
            or any(c for k, c in rem.items() if k not in carry)):
        raise ArithmeticError("dense linear division is not exact")
    return quot


def _dense_divided_difference(d: dict, layout: _Layout, u: str, v: str) -> dict:
    """(f - s f) / (u - v), s swapping u and v, in one pass over the keys
    of f, which has no zero coefficient.  By the monomial formula, for
    a > b, (u^a v^b - u^b v^a) / (u - v) is the sum of u^(a-1-i) v^(b+i)
    for i = 0..a-b-1; for a < b it is minus that of the swapped monomial,
    and for a = b it is 0.  f - s f vanishes at u = v, so the quotient is
    exact monomial by monomial and there is no remainder to check."""
    su, sv, mask = layout.shift[u], layout.shift[v], layout.mask
    step = (1 << su) - (1 << sv)  # one unit from the v field to the u field
    bu = layout.unit[u]
    out: dict[int, object] = {}
    get = out.get
    for k, c in d.items():
        t = ((k >> su) & mask) - ((k >> sv) & mask)  # a - b
        if t < 0:  # swap the two fields and negate
            k -= t * step
            c, t = -c, -t
        elif not t:
            continue
        k -= bu  # u^(a-1) v^b, then one unit moves from u to v per output
        for _ in range(t):
            c2 = get(k, 0) + c
            if c2:
                out[k] = c2
            else:
                del out[k]
            k -= step
    return out


class _Terms(Mapping):
    """{monomial: coefficient} of a MultiPoly, decoded as it is read."""

    __slots__ = ("_poly",)

    def __init__(self, poly: "MultiPoly"):
        self._poly = poly

    def __len__(self):
        return len(self._poly.packed)

    def __iter__(self):
        return map(self._poly.layout.monomial, self._poly.packed)

    def __getitem__(self, mono):
        return self._poly.packed[self._poly.layout.key(mono)]

    def items(self):
        return _TermItems(self)


class _TermItems(ItemsView):
    __slots__ = ()

    def __iter__(self):
        poly = self._mapping._poly
        return zip(map(poly.layout.monomial, poly.packed), poly.packed.values())


class MultiPoly:
    """Coefficients are Fraction or int; ints are kept unwrapped since the
    two interoperate exactly and integer paths skip gcd normalization."""

    __slots__ = ("layout", "packed")

    def __init__(self, terms: Mapping[Monomial, Fraction] | None = None):
        """From {((var, exp), ...): coeff}; repeated monomials are summed."""
        terms = dict(terms or {})
        layout = packed_layout({v for m in terms for v, _ in m},
                               max((sum(e for _, e in m) for m in terms), default=0))
        packed: dict[int, object] = {}
        for m, c in terms.items():
            k = layout.key(m)
            packed[k] = packed.get(k, 0) + (c if isinstance(c, (int, Fraction)) else Fraction(c))
        self.layout, self.packed = layout, {k: c for k, c in packed.items() if c}

    @classmethod
    def from_packed(cls, layout: _Layout, packed: dict) -> "MultiPoly":
        """Trusted: keys on `layout`, no zero coefficient."""
        obj = object.__new__(cls)
        obj.layout, obj.packed = layout, packed
        return obj

    def packed_on(self, layout: _Layout) -> dict:
        """The packed dict on `layout`, which must hold the names used and the degree."""
        if not self.variables() <= set(layout.names) or self.total_degree() > layout.mask:
            raise ValueError(f"{self.render()} does not fit the layout")
        return _move(self.packed, self.layout, layout)

    # -- constructors ---------------------------------------------------

    @staticmethod
    def const(c) -> "MultiPoly":
        if not isinstance(c, (int, Fraction)):
            c = Fraction(c)
        return MultiPoly.from_packed(_Layout((), 8), {0: c} if c else {})

    @staticmethod
    def var(name: str) -> "MultiPoly":
        layout = _Layout((name,), 8)
        return MultiPoly.from_packed(layout, {layout.unit[name]: 1})

    @staticmethod
    def zero() -> "MultiPoly":
        return MultiPoly.const(0)

    @staticmethod
    def one() -> "MultiPoly":
        return MultiPoly.const(1)

    # -- queries ----------------------------------------------------------

    @property
    def terms(self) -> Mapping[Monomial, Fraction]:
        return _Terms(self)

    def variables(self) -> set[str]:
        used = reduce(or_, self.packed, 0)
        return {nm for nm, fm, _ in self.layout.fields if used & fm}

    def degree_in(self, var: str) -> int:
        s, mask = self.layout.shift.get(var), self.layout.mask
        return 0 if s is None else max(((k >> s) & mask for k in self.packed), default=0)

    def total_degree(self) -> int:
        return max(self.packed, default=0) >> self.layout.top

    def constant_value(self) -> Fraction:
        """The value of a constant polynomial."""
        if set(self.packed) - {0}:
            raise ValueError(f"not a constant polynomial: {self.render()}")
        return self.packed.get(0, Fraction(0))

    def _common(self, other: "MultiPoly", degree: int = 0):
        """One layout for both operands and for total degree `degree`, and
        the two packed dicts on it."""
        a, b = self.layout, other.layout
        if a is b and degree <= a.mask:
            return a, self.packed, other.packed
        dst = packed_layout({*a.names, *b.names}, max(degree, a.mask, b.mask))
        return dst, _move(self.packed, a, dst), _move(other.packed, b, dst)

    def __eq__(self, other):
        if not isinstance(other, MultiPoly) or len(self.packed) != len(other.packed):
            return False
        _, x, y = self._common(other)
        return x == y

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        layout, x, y = self._common(other)
        out = dict(x)
        for k, c in y.items():
            v = out.get(k, 0) + c
            if v:
                out[k] = v
            elif k in out:
                del out[k]
        return MultiPoly.from_packed(layout, out)

    def __neg__(self) -> "MultiPoly":
        return self.scale(-1)

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return self + -other

    def __mul__(self, other: "MultiPoly") -> "MultiPoly":
        if not self.packed or not other.packed:
            return MultiPoly.zero()
        layout, x, y = self._common(other, self.total_degree() + other.total_degree())
        return MultiPoly.from_packed(layout, _dense_mul(x, y))

    def scale(self, c) -> "MultiPoly":
        return MultiPoly.const(c) * self

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
        """Exact full evaluation; every variable used must be assigned.

        Each power v^e is built once per call, keyed by its field of the
        packed key; int values stay ints until the final Fraction.
        """
        fields = self.layout.fields
        powers: dict[int, object] = {}
        get = powers.get
        total = 0
        for k, c in self.packed.items():
            acc = c
            for nm, fm, s in fields:
                f = k & fm
                if f:
                    pw = get(f)
                    if pw is None:
                        if nm not in assignment:
                            raise KeyError(f"variable {nm!r} not assigned")
                        x = assignment[nm]
                        if not isinstance(x, (int, Fraction)):
                            x = Fraction(x)
                        pw = powers[f] = x ** (f >> s)
                    acc *= pw
            total += acc
        return Fraction(total)

    def subs_vars(self, mapping: Mapping[str, str]) -> "MultiPoly":
        """Rename variables (used to plug color sets into dot polynomials);
        names sent to one name multiply together."""
        src = self.layout
        dst = packed_layout({mapping.get(nm, nm) for nm in src.names}, src.mask)
        return MultiPoly.from_packed(dst, _move(self.packed, src, dst, mapping))

    # -- printing --------------------------------------------------------

    def render(self) -> str:
        """The terms in graded lex order.  Each factor string `v` or `v^e`
        is built once per call, keyed by its field of the packed key as
        `eval` keys its powers."""
        if not self.packed:
            return "0"
        fields, packed = self.layout.fields, self.packed
        factors: dict[int, str] = {}
        get = factors.get
        out = []  # " + " or " - ", then the term; the first sign is fixed at the end
        for k in sorted(packed, reverse=True):  # graded lex
            c = packed[k]
            if c < 0:
                out.append(" - ")
                c = -c
            else:
                out.append(" + ")
            body = []
            for nm, fm, s in fields:
                f = k & fm
                if f:
                    text = get(f)
                    if text is None:
                        e = f >> s
                        text = factors[f] = nm if e == 1 else f"{nm}^{e}"
                    body.append(text)
            if not body:
                out.append(str(c))
            else:
                if c != 1:
                    out.append(f"{c}*")
                out.append("*".join(body))
        text = "".join(out)
        return text[3:] if text[1] == "+" else "-" + text[3:]

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
