"""R-products, Sylvester double sums, and overlapping flower foams.

All computations are exact.  Subset-indexed rational sums (Sylvester
sums, the Exchange identity, the Chen-Louck interpolation formula, the
three-alphabet partition identity) are handled in two ways sharing one
term representation:

  * symbolically: every denominator divides the product of Vandermonde
    determinants of the alphabets involved, so the sum is cleared by L,
    the lcm of the term denominators.  Each term is multiplied by the
    factors of L its denominator lacks (no term is divided), the linear
    factors common to every term are held back, the sum is divided by L
    with exact linear divisions that raise on nonzero remainder, and the
    common factors are multiplied back in;
  * numerically: terms are kept factored (small polynomials plus lists of
    linear differences) and evaluated at exact rational points, never
    expanding the products.

Overlap diagrams consist of flower foams (one maximal-thickness facet
with petal disks whose sizes partition the alphabet) and maximal-
thickness dotted surfaces, plus ordered intersection circles.  A coloring
assigns an ordered set partition to each flower; its term is

    prod(petal/body dots on their color sets)
  * prod over petal pairs i<j of R(V_i, V_j)^(-1)   (flipped pairs use
                                                     R(V_j, V_i))
  * prod over intersection circles of R(colors of first end, second end)

Petal dots are symmetric polynomials written in slot variables s1..sk;
symmetry is validated on adjacent transpositions.

Identity verifiers run in three modes.  "symbolic" expands both sides
exactly (a proof).  "grid" evaluates both sides in integers along one
line, variable i taking the value 1 + i*(D+2) + i^2*t for t = 0..D, where
D is the total degree of the difference of the sides times the
Vandermonde product of the delta alphabets (`cleared_degree`).  No two
variables meet on that line, so no denominator vanishes, and the
differences v_i - v_j = (i-j)(D+2+(i+j)t) vary along it.  The D + 1
points prove that the identity holds on the whole line; that is
evidence, not a symbolic proof.  "random" uses seeded random rationals
with resampling on zero denominators.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence

from .exactalg.multipoly import MultiPoly, esym, is_symmetric


class FoamValueError(ValueError):
    pass


@dataclass(frozen=True)
class VarAlphabet:
    name: str
    variables: tuple[str, ...]

    def __len__(self):
        return len(self.variables)


def alphabet(name: str, size: int) -> VarAlphabet:
    return VarAlphabet(name, tuple(f"{name.lower()}{i+1}" for i in range(size)))


def slots(k: int) -> list[str]:
    return [f"s{i+1}" for i in range(k)]


def r_factors(Y: Sequence[str], Z: Sequence[str]) -> list[tuple[str, str]]:
    """Linear factors (y, z) of R(Y, Z) without expanding the product."""
    Y, Z = list(Y), list(Z)
    if set(Y) & set(Z):
        raise FoamValueError("R-product needs disjoint variable sets")
    return [(y, z) for y in Y for z in Z]


def r_product(Y: Sequence[str], Z: Sequence[str]) -> MultiPoly:
    """R(Y, Z) = prod over y in Y, z in Z of (y - z); 1 on empty sets."""
    out = MultiPoly.one()
    for y, z in r_factors(Y, Z):
        out = out * (MultiPoly.var(y) - MultiPoly.var(z))
    return out


def vandermonde_factors(variables: Sequence[str]) -> list[tuple[str, str]]:
    vs = list(variables)
    return [(vs[i], vs[j]) for i in range(len(vs)) for j in range(i + 1, len(vs))]


@dataclass(frozen=True)
class Term:
    """One summand: (prod polys * prod linear (u - v)) / prod linear (u - v)."""

    polys: tuple[MultiPoly, ...]
    lin: tuple[tuple[str, str], ...]
    den: tuple[tuple[str, str], ...]


# Dense engine: monomials are exponent vectors packed into one integer,
# `width` bits per variable, so multiplying by a variable is an integer add.
# fraction_free_sum sizes the width from the cleared degree, which bounds
# every exponent it builds; it never goes below _MIN_WIDTH bits.
_MIN_WIDTH = 8


def _dense_mul_linear(d: dict, su: int, sv: int) -> dict:
    bu, bv = 1 << su, 1 << sv
    out: dict[int, object] = {}
    for k, c in d.items():
        ku = k + bu
        out[ku] = out.get(ku, 0) + c
    for k, c in d.items():
        kv = k + bv
        out[kv] = out.get(kv, 0) - c
    return {k: c for k, c in out.items() if c}


def _dense_mul(d1: dict, d2: dict) -> dict:
    out: dict[int, object] = {}
    for k1, c1 in d1.items():
        for k2, c2 in d2.items():
            k = k1 + k2
            out[k] = out.get(k, 0) + c1 * c2
    return {k: c for k, c in out.items() if c}


def _dense_divexact_linear(d: dict, su: int, sv: int, mask: int) -> dict:
    """Exact synthetic division by (u - v) on packed keys."""
    if not d:
        return {}
    by_deg: dict[int, dict[int, object]] = {}
    top = 0
    for k, c in d.items():
        e = (k >> su) & mask
        rest = k - (e << su)
        by_deg.setdefault(e, {})[rest] = by_deg.setdefault(e, {}).get(rest, 0) + c
        if e > top:
            top = e
    bv = 1 << sv
    quot: dict[int, object] = {}
    carry: dict[int, object] = {}
    for e in range(top, 0, -1):
        level = by_deg.get(e, {})
        for k, c in level.items():
            carry[k] = carry.get(k, 0) + c
        # carry now holds the quotient coefficient of u^(e-1)
        base = (e - 1) << su
        nxt: dict[int, object] = {}
        for k, c in carry.items():
            if c:
                quot[base + k] = c
                nxt[k + bv] = c
        carry = nxt
    rem = dict(by_deg.get(0, {}))
    for k, c in carry.items():
        rem[k] = rem.get(k, 0) + c
    if any(c for c in rem.values()):
        raise ArithmeticError("dense linear division is not exact")
    return quot


def _collect_variables(terms: Sequence[Term], delta_alphabets) -> list[str]:
    vs = set()
    for alpha in delta_alphabets:
        vs.update(alpha)
    for t in terms:
        for p in t.polys:
            vs.update(p.variables())
        for u, v in t.lin:
            vs.add(u)
            vs.add(v)
        for u, v in t.den:
            vs.add(u)
            vs.add(v)
    return sorted(vs)


def _to_dense(p: MultiPoly, shift_of: dict) -> dict:
    out = {}
    for m, c in p.terms.items():
        key = 0
        for v, e in m:
            key += e << shift_of[v]
        out[key] = c
    return out


def _from_dense(d: dict, names: list[str], width: int) -> MultiPoly:
    mask = (1 << width) - 1
    terms = {}
    for k, c in d.items():
        mono = []
        for i, nm in enumerate(names):
            e = (k >> (width * i)) & mask
            if e:
                mono.append((nm, e))
        terms[tuple(mono)] = c
    return MultiPoly(terms)


def cleared_degree(terms: Sequence[Term], delta_alphabets: Sequence[Sequence[str]],
                   polys: Sequence[MultiPoly] = ()) -> int:
    """Total degree bound of a term sum times V, the Vandermonde product.

    A term times V is a polynomial of degree deg V + len(lin) +
    sum(deg polys) - len(den) when its denominator factors are distinct
    factors of V, which is checked; a closed polynomial in `polys` times V
    has degree deg V + deg p.  The bound is the largest of these.
    """
    pairs = {frozenset(f) for vs in delta_alphabets for f in vandermonde_factors(vs)}
    top = max((p.total_degree() for p in polys), default=0)
    for t in terms:
        den = {frozenset(f) for f in t.den}
        if len(den) != len(t.den) or not den <= pairs:
            raise FoamValueError("a term denominator does not divide the "
                                 "Vandermonde product of the delta alphabets")
        top = max(top, len(t.lin) + sum(p.total_degree() for p in t.polys)
                  - len(t.den))
    return sum(len(vs) * (len(vs) - 1) // 2 for vs in delta_alphabets) + top


def fraction_free_sum(terms: Iterable[Term],
                      delta_alphabets: Sequence[Sequence[str]]) -> MultiPoly:
    """Exact sum of terms whose denominators divide the Vandermonde product.

    The sum is cleared by L, the lcm of the term denominators: the product
    of the distinct denominator factors, each kept in the orientation of
    its first occurrence.  Each term starts from +-1 (-1 per denominator
    factor written against L), is multiplied by the factors of L its own
    denominator lacks, by its polys and by its linear factors other than
    C, the linear factors shared by every term that are not factors of L.
    No term is divided.  The sum is divided exactly by the factors of L
    (raising on a nonzero remainder) and the quotient multiplied by C;
    C is coprime to L, so a polynomial sum stays one without it.
    """
    terms = list(terms)
    names = _collect_variables(terms, delta_alphabets)
    # checks every denominator against V; L divides V, so no product below
    # exceeds the cleared degree
    width = max(_MIN_WIDTH, cleared_degree(terms, delta_alphabets).bit_length())
    mask = (1 << width) - 1
    shift_of = {nm: width * i for i, nm in enumerate(names)}

    lcm: dict[frozenset, tuple[str, str]] = {}
    for term in terms:
        for f in term.den:
            lcm.setdefault(frozenset(f), f)
    common = Counter(terms[0].lin) if terms else Counter()
    for term in terms[1:]:
        common &= Counter(term.lin)
    common = Counter({f: k for f, k in common.items() if frozenset(f) not in lcm})

    acc: dict[int, object] = {}
    for term in terms:
        den = {frozenset(f) for f in term.den}
        cur = {0: (-1) ** sum(f != lcm[frozenset(f)] for f in term.den)}
        for key, (u, v) in lcm.items():
            if key not in den:
                cur = _dense_mul_linear(cur, shift_of[u], shift_of[v])
        for p in term.polys:
            cur = _dense_mul(cur, _to_dense(p, shift_of))
        for u, v in (Counter(term.lin) - common).elements():
            cur = _dense_mul_linear(cur, shift_of[u], shift_of[v])
        for k, c in cur.items():
            acc[k] = acc.get(k, 0) + c
    for u, v in lcm.values():
        acc = _dense_divexact_linear(acc, shift_of[u], shift_of[v], mask)
    for u, v in common.elements():
        acc = _dense_mul_linear(acc, shift_of[u], shift_of[v])
    return _from_dense(acc, names, width)


def evaluate_terms_at(terms: Iterable[Term], assignment) -> Fraction:
    """Exact value of the sum at a point; raises on zero denominator.

    Each term's numerator and denominator are plain products of the
    values (ints at integer points), added into one running N/D by
    cross-multiplication; a single Fraction is built at the end.
    """
    total_num, total_den = 0, 1
    for term in terms:
        num = 1
        for p in term.polys:
            num *= p.eval(assignment)
        if num:
            for u, v in term.lin:
                num *= assignment[u] - assignment[v]
        den = 1
        for u, v in term.den:
            den *= assignment[u] - assignment[v]
        if not den:
            raise ZeroDivisionError("denominator vanished at evaluation point")
        if num:
            total_num = total_num * den + num * total_den
            total_den *= den
    return Fraction(total_num, total_den)


# ---------------------------------------------------------------------------
# Sylvester double sums


def sylvester_terms(A: VarAlphabet, B: VarAlphabet, p: int, q: int,
                    x: str = "x"):
    m, n = len(A), len(B)
    if not (0 <= p <= m and 0 <= q <= n):
        raise FoamValueError(f"(p, q) = {(p, q)} out of range for ({m}, {n})")
    for Ap in itertools.combinations(A.variables, p):
        Ac = [a for a in A.variables if a not in Ap]
        for Bp in itertools.combinations(B.variables, q):
            Bc = [b for b in B.variables if b not in Bp]
            lin = (
                r_factors(Ap, Bp) + r_factors(Ac, Bc)
                + r_factors([x], Ap) + r_factors([x], Bp)
            )
            yield Term((), tuple(lin), tuple(r_factors(Ap, Ac) + r_factors(Bp, Bc)))


@lru_cache(maxsize=256)
def sylvester_double_sum(A: VarAlphabet, B: VarAlphabet, p: int, q: int,
                         x: str = "x") -> MultiPoly:
    """Syl_{p,q}(A,B)(x), a polynomial of x-degree at most p + q."""
    return fraction_free_sum(
        sylvester_terms(A, B, p, q, x), [A.variables, B.variables]
    )


# ---------------------------------------------------------------------------
# Overlap diagrams


@dataclass(frozen=True)
class FlowerFoam:
    """One big facet with petal disks over an alphabet.

    petal_dots[i] is None or a symmetric MultiPoly in slots(sizes[i]);
    flipped_pairs lists petal index pairs (i, j), i < j, whose seam circle
    is oriented oppositely: the denominator uses R(V_j, V_i).
    """

    alphabet: VarAlphabet
    sizes: tuple[int, ...]
    petal_dots: tuple = ()
    flipped_pairs: frozenset = frozenset()

    def __post_init__(self):
        if sum(self.sizes) != len(self.alphabet):
            raise FoamValueError("petal sizes must sum to the alphabet size")
        if any(s < 0 for s in self.sizes):
            raise FoamValueError("petal sizes must be nonnegative")
        dots = self.petal_dots or (None,) * len(self.sizes)
        if len(dots) != len(self.sizes):
            raise FoamValueError("one dot entry per petal (None allowed)")
        for size, dot in zip(self.sizes, dots):
            if dot is None:
                continue
            sl = slots(size)
            if not set(dot.variables()) <= set(sl):
                raise FoamValueError(f"petal dot must use slot variables {sl}")
            if not is_symmetric(dot, sl):
                raise FoamValueError("petal dot is not symmetric in its slots")
        object.__setattr__(self, "petal_dots", tuple(dots))

    def colorings(self):
        """Ordered set partitions of the alphabet with the petal sizes."""
        def rec(remaining, sizes):
            if not sizes:
                yield ()
                return
            k = sizes[0]
            for block in itertools.combinations(remaining, k):
                rest = [v for v in remaining if v not in block]
                for tail in rec(rest, sizes[1:]):
                    yield (block,) + tail

        return rec(list(self.alphabet.variables), list(self.sizes))


@dataclass(frozen=True)
class MaxSurface:
    """Connected surface of maximal thickness; evaluation ignores genus."""

    alphabet: VarAlphabet
    genus: int = 0
    dots: tuple = ()

    def __post_init__(self):
        sl = slots(len(self.alphabet))
        for dot in self.dots:
            if not set(dot.variables()) <= set(sl):
                raise FoamValueError(f"surface dot must use slot variables {sl}")
            if not is_symmetric(dot, sl):
                raise FoamValueError("surface dot is not symmetric in its slots")


@dataclass(frozen=True)
class OverlapDiagram:
    """Components by name plus ordered intersection circles.

    Each intersection endpoint is (component name, petal index or None for
    the body of a maximal surface); the recorded order of the pair fixes
    the sign of the R-product.
    """

    components: tuple[tuple[str, object], ...]
    intersections: tuple = ()

    def component(self, name: str):
        for nm, comp in self.components:
            if nm == name:
                return comp
        raise FoamValueError(f"no component {name!r}")

    def __post_init__(self):
        names = [nm for nm, _ in self.components]
        if len(set(names)) != len(names):
            raise FoamValueError("component names must be unique")
        seen = set()
        for comp_name, _ in self.components:
            comp = self.component(comp_name)
            vs = set(comp.alphabet.variables)
            if vs & seen:
                raise FoamValueError("alphabets must be disjoint across components")
            seen |= vs
        for (n1, p1), (n2, p2) in self.intersections:
            if n1 == n2:
                raise FoamValueError("an intersection must join two components")
            for nm, idx in ((n1, p1), (n2, p2)):
                comp = self.component(nm)
                if isinstance(comp, FlowerFoam):
                    if not (isinstance(idx, int) and 0 <= idx < len(comp.sizes)):
                        raise FoamValueError(f"bad petal index {idx} on {nm}")
                else:
                    if idx is not None:
                        raise FoamValueError(
                            f"surface {nm} has only a body (index None)"
                        )


def _dot_value(dot, color_vars) -> MultiPoly:
    if dot is None:
        return MultiPoly.one()
    mapping = dict(zip(slots(len(color_vars)), color_vars))
    return dot.subs_vars(mapping)


def overlap_terms(diagram: OverlapDiagram):
    """The coloring state sum as factored terms."""
    flowers = [(nm, c) for nm, c in diagram.components if isinstance(c, FlowerFoam)]
    surfaces = [(nm, c) for nm, c in diagram.components if isinstance(c, MaxSurface)]

    surface_color = {nm: c.alphabet.variables for nm, c in surfaces}
    surface_dots = []
    for nm, c in surfaces:
        for dot in c.dots:
            surface_dots.append(_dot_value(dot, c.alphabet.variables))

    for combo in itertools.product(*[list(c.colorings()) for _, c in flowers]):
        colors = dict(surface_color)
        polys = list(surface_dots)
        lin = []
        den = []
        for (nm, flower), blocks in zip(flowers, combo):
            colors[nm] = blocks
            for dot, block in zip(flower.petal_dots, blocks):
                if dot is not None:
                    polys.append(_dot_value(dot, block))
            k = len(flower.sizes)
            for i in range(k):
                for j in range(i + 1, k):
                    if (i, j) in flower.flipped_pairs:
                        den.extend(r_factors(blocks[j], blocks[i]))
                    else:
                        den.extend(r_factors(blocks[i], blocks[j]))
        for (n1, p1), (n2, p2) in diagram.intersections:
            c1 = colors[n1] if p1 is None else colors[n1][p1]
            c2 = colors[n2] if p2 is None else colors[n2][p2]
            lin.extend(r_factors(c1, c2))
        yield Term(tuple(polys), tuple(lin), tuple(den))


def _diagram_deltas(diagram: OverlapDiagram):
    return [
        c.alphabet.variables
        for _, c in diagram.components
        if isinstance(c, FlowerFoam)
    ]


def evaluate_overlap(diagram: OverlapDiagram) -> MultiPoly:
    """Sum over colorings; returns a polynomial over the union alphabet."""
    return fraction_free_sum(overlap_terms(diagram), _diagram_deltas(diagram))


def diagram_variables(diagram: OverlapDiagram) -> list[str]:
    out = []
    for _, c in diagram.components:
        out.extend(c.alphabet.variables)
    return out


# ---------------------------------------------------------------------------
# Diagram families from the closed formulas


def diagram_sylvester(A: VarAlphabet, B: VarAlphabet, p: int, q: int,
                      x: str = "x") -> OverlapDiagram:
    """Two seamed 2-spheres plus a thickness-one surface; four circles."""
    fa = FlowerFoam(A, (p, len(A) - p))
    fb = FlowerFoam(B, (q, len(B) - q))
    fx = MaxSurface(VarAlphabet("X", (x,)))
    return OverlapDiagram(
        (("A", fa), ("B", fb), ("X", fx)),
        (
            (("A", 0), ("B", 0)),
            (("A", 1), ("B", 1)),
            (("X", None), ("A", 0)),
            (("X", None), ("B", 0)),
        ),
    )


def diagram_product_formula_sides(A: VarAlphabet, X: VarAlphabet, d: int):
    """LHS/RHS diagrams of the interpolation identity for e_(m-d)."""
    m = len(A)
    e_top = esym(slots(m - d), m - d)
    lhs = OverlapDiagram(
        (("X", MaxSurface(X, genus=1, dots=(e_top,))),),
        (),
    )
    fa = FlowerFoam(A, (d, m - d), (None, e_top), flipped_pairs=frozenset({(0, 1)}))
    rhs = OverlapDiagram(
        (("X", MaxSurface(X, genus=1)), ("A", fa)),
        ((("X", None), ("A", 0)),),
    )
    return lhs, rhs


def diagram_exchange_sides(A: VarAlphabet, B: VarAlphabet, X: VarAlphabet, d: int):
    lhs = OverlapDiagram(
        (
            ("A", FlowerFoam(A, (d, len(A) - d), flipped_pairs=frozenset({(0, 1)}))),
            ("B", MaxSurface(B, genus=1)),
            ("X", MaxSurface(X, genus=1)),
        ),
        (
            (("X", None), ("A", 0)),
            (("A", 1), ("B", None)),
        ),
    )
    rhs = OverlapDiagram(
        (
            ("B", FlowerFoam(B, (d, len(B) - d))),
            ("A", MaxSurface(A, genus=1)),
            ("X", MaxSurface(X, genus=1)),
        ),
        (
            (("X", None), ("B", 0)),
            (("A", None), ("B", 1)),
        ),
    )
    return lhs, rhs


def diagram_dksv_sides(A: VarAlphabet, B: VarAlphabet, X: VarAlphabet,
                       E: VarAlphabet, d: int):
    m = len(A)
    lhs = OverlapDiagram(
        (
            ("A", FlowerFoam(A, (d, m - d))),
            ("B", MaxSurface(B)),
            ("X", MaxSurface(X)),
        ),
        (
            (("A", 1), ("B", None)),
            (("X", None), ("A", 0)),
        ),
    )
    rhs = OverlapDiagram(
        (
            ("E", FlowerFoam(E, (d, m - d, len(E) - m))),
            ("A", MaxSurface(A)),
            ("B", MaxSurface(B)),
            ("X", MaxSurface(X)),
        ),
        (
            (("A", None), ("E", 2)),
            (("E", 1), ("B", None)),
            (("X", None), ("E", 0)),
        ),
    )
    return lhs, rhs


# ---------------------------------------------------------------------------
# Closed-formula sides (the identity oracles)


def exchange_sides_terms(A: VarAlphabet, B: VarAlphabet, X: VarAlphabet, d: int):
    """Term generators for the two sides of the exchange identity."""
    def lhs():
        for Ap in itertools.combinations(A.variables, d):
            Ac = [a for a in A.variables if a not in Ap]
            lin = r_factors(Ac, B.variables) + r_factors(X.variables, Ap)
            yield Term((), tuple(lin), tuple(r_factors(Ac, Ap)))

    def rhs():
        for Bp in itertools.combinations(B.variables, d):
            Bc = [b for b in B.variables if b not in Bp]
            lin = r_factors(A.variables, Bc) + r_factors(X.variables, Bp)
            yield Term((), tuple(lin), tuple(r_factors(Bp, Bc)))

    return lhs, rhs


def chen_louck_sides(A: VarAlphabet, X: VarAlphabet, d: int, f: MultiPoly):
    """LHS value and RHS term generator of the interpolation identity."""
    m = len(A)
    k = m - d
    if len(X) != k:
        raise FoamValueError(f"need |X| = m - d = {k}, got {len(X)}")
    for v in f.variables():
        if f.degree_in(v) > d:
            raise FoamValueError(
                f"dot polynomial has degree {f.degree_in(v)} > d = {d} in {v}"
            )
    if not set(f.variables()) <= set(slots(k)):
        raise FoamValueError(f"dot polynomial must use slot variables {slots(k)}")
    if not is_symmetric(f, slots(k)):
        raise FoamValueError("dot polynomial must be symmetric")

    lhs_value = _dot_value(f, X.variables)

    def rhs():
        for Ap in itertools.combinations(A.variables, d):
            Ac = [a for a in A.variables if a not in Ap]
            yield Term(
                (_dot_value(f, tuple(Ac)),),
                tuple(r_factors(X.variables, Ap)),
                tuple(r_factors(Ac, Ap)),
            )

    return lhs_value, rhs


def dksv_sides(A: VarAlphabet, B: VarAlphabet, X: VarAlphabet, E: VarAlphabet,
               d: int):
    m, n = len(A), len(B)
    if len(E) < max(len(X) + d, m + n - d, m):
        raise FoamValueError(
            f"|E| = {len(E)} below max(|X|+d, m+n-d, m) = "
            f"{max(len(X) + d, m + n - d, m)}"
        )

    def lhs():
        for A1 in itertools.combinations(A.variables, d):
            A2 = [a for a in A.variables if a not in A1]
            lin = r_factors(A2, B.variables) + r_factors(X.variables, A1)
            yield Term((), tuple(lin), tuple(r_factors(A1, A2)))

    def rhs():
        for E1 in itertools.combinations(E.variables, d):
            rest1 = [e for e in E.variables if e not in E1]
            for E2 in itertools.combinations(rest1, m - d):
                E3 = [e for e in rest1 if e not in E2]
                lin = (
                    r_factors(A.variables, E3)
                    + r_factors(E2, B.variables)
                    + r_factors(X.variables, E1)
                )
                den = (
                    r_factors(E1, E2) + r_factors(E1, E3) + r_factors(E2, E3)
                )
                yield Term((), tuple(lin), tuple(den))

    return lhs, rhs


# ---------------------------------------------------------------------------
# Verification modes


def grid_assignments(variables: Sequence[str], degree: int):
    """Integer points t = 0..degree on the line v_i = 1 + i*(degree+2) + i^2*t.

    `degree` is the cleared total degree D of the identity being checked:
    along the line the difference of the sides times the Vandermonde
    product is a univariate polynomial of degree at most D, so the D + 1
    points prove that it vanishes on the whole line (not everywhere).
    Since v_i - v_j = (i-j)(D+2+(i+j)t), no two variables ever meet and
    the differences vary from point to point.
    """
    vs = list(variables)
    step = degree + 2
    for t in range(degree + 1):
        yield {v: 1 + i * step + i * i * t for i, v in enumerate(vs)}


def _random_assignments(variables: Sequence[str], count: int, seed: int):
    rng = random.Random(seed)
    vs = list(variables)
    made = 0
    while made < count:
        vals = {}
        used = set()
        ok = True
        for v in vs:
            val = Fraction(rng.randint(-50, 50), rng.randint(1, 9))
            if val in used:
                ok = False
                break
            used.add(val)
            vals[v] = val
        if ok:
            made += 1
            yield vals


def _check_identity(lhs_terms, rhs_terms, variables, delta_alphabets,
                    mode: str, seed: int = 0,
                    lhs_value: MultiPoly | None = None) -> bool:
    """Compare two subset sums; lhs may instead be a closed polynomial."""
    lhs = [] if lhs_value is not None else list(lhs_terms())
    rhs = list(rhs_terms())
    if mode == "symbolic":
        left = (lhs_value if lhs_value is not None
                else fraction_free_sum(lhs, delta_alphabets))
        return left == fraction_free_sum(rhs, delta_alphabets)
    if mode == "grid":
        closed = () if lhs_value is None else (lhs_value,)
        points = grid_assignments(
            variables, cleared_degree(lhs + rhs, delta_alphabets, closed))
    elif mode == "random":
        points = _random_assignments(variables, 12, seed)
    else:
        raise FoamValueError(f"unknown mode {mode!r}")
    for assignment in points:
        try:
            left = (lhs_value.eval(assignment) if lhs_value is not None
                    else evaluate_terms_at(lhs, assignment))
            right = evaluate_terms_at(rhs, assignment)
        except ZeroDivisionError:
            if mode == "random":
                continue
            raise
        if left != right:
            return False
    return True


def verify_exchange(m: int, n: int, mode: str = "symbolic", seed: int = 0) -> list:
    """Exchange identity for all 0 <= d <= min(m, n), with |X| = m + n - 2d.

    The identity fails for larger X-alphabets, so the maximal valid size
    is used; smaller sizes follow by specializing X-variables.
    """
    report = []
    for d in range(min(m, n) + 1):
        A = alphabet("A", m)
        B = alphabet("B", n)
        X = alphabet("X", m + n - 2 * d)
        lhs, rhs = exchange_sides_terms(A, B, X, d)
        variables = A.variables + B.variables + X.variables
        ok = _check_identity(
            lhs, rhs, variables, [A.variables, B.variables],
            mode, seed=seed,
        )
        report.append({"d": d, "size_x": len(X), "ok": ok})
    return report


def verify_chen_louck(m: int, d: int, f: MultiPoly | None = None,
                      mode: str = "symbolic", seed: int = 0) -> dict:
    """The interpolation identity; f defaults to e_(m-d) of the slots."""
    if not 0 <= d <= m:
        raise FoamValueError(f"d = {d} out of range for m = {m}")
    k = m - d
    if f is None:
        f = esym(slots(k), k)
    A = alphabet("A", m)
    X = alphabet("X", k)
    lhs_value, rhs = chen_louck_sides(A, X, d, f)
    variables = A.variables + X.variables
    ok = _check_identity(
        None, rhs, variables, [A.variables], mode,
        seed=seed, lhs_value=lhs_value,
    )
    return {"m": m, "d": d, "ok": ok}


def verify_dksv(m: int, n: int, d: int, size_x: int, size_e: int,
                mode: str = "symbolic", seed: int = 0) -> dict:
    A = alphabet("A", m)
    B = alphabet("B", n)
    X = alphabet("X", size_x)
    E = alphabet("E", size_e)
    lhs, rhs = dksv_sides(A, B, X, E, d)
    variables = A.variables + B.variables + X.variables + E.variables
    ok = _check_identity(
        lhs, rhs, variables, [A.variables, E.variables],
        mode, seed=seed,
    )
    return {"m": m, "n": n, "d": d, "size_x": size_x, "size_e": size_e, "ok": ok}


def overlap_matches_polynomial(diagram: OverlapDiagram, poly_terms) -> bool:
    """Grid-mode equality of a diagram's state sum and a term sum."""
    return _check_identity(
        lambda: overlap_terms(diagram), poly_terms, diagram_variables(diagram),
        _diagram_deltas(diagram), "grid",
    )
