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

`sylvester_double_sum` takes neither route.  Its terms are the images of
one base term under the cosets of S_p x S_(m-p) in S_m and of
S_q x S_(n-q) in S_n, so the sum is a chain of divided differences of
that base (`symmetrized_sum`): each step swaps two variables and divides
exactly by one linear factor, and the base's symmetry in each block is
certified first.  Every other sum stays flat, through
`fraction_free_sum`, including `evaluate_overlap` of `diagram_sylvester`,
which therefore checks `sylvester_double_sum` on an independent route.
Both routes run the dense kernels of `exactalg.multipoly` on one packed
layout, wide enough for a degree bound derived from the terms, and
return the packed sum as a `MultiPoly` with no decode.

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

Identity verifiers compare two term lists (a closed side is the one term
with that polynomial) in two modes.  "symbolic" expands both sides
exactly (a proof).  "grid" evaluates both sides in integers along one
line: the variables of the terms, in sorted order, are v_0, v_1, ...,
and v_i takes the value 1 + i*(D+2) + i^2*t for t = 0..D, where D is the
total degree of the difference of the sides times the Vandermonde
product of the delta alphabets (`cleared_degree`).  No two variables
meet on that line, so no denominator vanishes, and the differences
v_i - v_j = (i-j)(D+2+(i+j)t) vary along it.  The D + 1 points prove
that the identity holds on the whole line; that is evidence, not a
symbolic proof.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence

from .exactalg.multipoly import (MultiPoly, _dense_divexact_linear, _dense_divided_difference,
                                 _dense_mul, _dense_mul_linear, esym, is_symmetric,
                                 packed_layout)


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


def cleared_degree(terms: Sequence[Term], delta_alphabets: Sequence[Sequence[str]]) -> int:
    """Total degree bound of a term sum times V, the Vandermonde product.

    A term times V is a polynomial of degree deg V + len(lin) +
    sum(deg polys) - len(den) when its denominator factors are distinct
    factors of V, which is checked.  The bound is the largest of these.
    """
    pairs = {frozenset(f) for vs in delta_alphabets for f in vandermonde_factors(vs)}
    top = 0
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
    # checks every denominator against V; L divides V, so no product below
    # exceeds the cleared degree, which the layout's width holds
    layout = packed_layout(_collect_variables(terms, delta_alphabets),
                           cleared_degree(terms, delta_alphabets))

    lcm: dict[frozenset, tuple[str, str]] = {}
    for term in terms:
        for f in term.den:
            lcm.setdefault(frozenset(f), f)
    common = Counter(terms[0].lin) if terms else Counter()
    for term in terms[1:]:
        common &= Counter(term.lin)
    common = Counter({f: k for f, k in common.items() if frozenset(f) not in lcm})

    acc: dict[int, object] = {}
    get = acc.get
    for term in terms:
        den = {frozenset(f) for f in term.den}
        sign = (-1) ** sum(f != lcm[frozenset(f)] for f in term.den)
        cur = MultiPoly.const(sign).packed_on(layout)
        for key, (u, v) in lcm.items():
            if key not in den:
                cur = _dense_mul_linear(cur, layout, u, v)
        for p in term.polys:
            cur = _dense_mul(cur, p.packed_on(layout))
        for u, v in (Counter(term.lin) - common).elements():
            cur = _dense_mul_linear(cur, layout, u, v)
        for k, c in cur.items():
            acc[k] = get(k, 0) + c
    # the exact divisions drop the zeros the sum leaves; without them, drop here
    if not lcm:
        acc = {k: c for k, c in acc.items() if c}
    for u, v in lcm.values():
        acc = _dense_divexact_linear(acc, layout, u, v)
    for u, v in common.elements():
        acc = _dense_mul_linear(acc, layout, u, v)
    return MultiPoly.from_packed(layout, acc)


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


def sylvester_terms(A: VarAlphabet, B: VarAlphabet, p: int, q: int):
    m, n = len(A), len(B)
    if not (0 <= p <= m and 0 <= q <= n):
        raise FoamValueError(f"(p, q) = {(p, q)} out of range for ({m}, {n})")
    for Ap in itertools.combinations(A.variables, p):
        Ac = [a for a in A.variables if a not in Ap]
        for Bp in itertools.combinations(B.variables, q):
            Bc = [b for b in B.variables if b not in Bp]
            lin = (
                r_factors(Ap, Bp) + r_factors(Ac, Bc)
                + r_factors(["x"], Ap) + r_factors(["x"], Bp)
            )
            yield Term((), tuple(lin), tuple(r_factors(Ap, Ac) + r_factors(Bp, Bc)))


def symmetrized_sum(lin: Sequence[tuple[str, str]],
                    splits: Sequence[tuple[Sequence[str], int]]) -> MultiPoly:
    """The orbit sum of f / prod R(V[:k], V[k:]) over the split alphabets.

    f is the product of (u - v) over `lin`, and it must be symmetric in
    each block V[:k] and V[k:] of each split (V, k); that is certified on
    the factor multiset, adjacent transposition by adjacent transposition,
    and raises FoamValueError otherwise.  The sum runs over every choice
    of a k-subset I of each V, the term for I being f / R(V[:k], V[k:])
    with V[:k] sent to I and V[k:] to V minus I, both in order.  For one
    split (Lascoux & Pragacz, J. Symb. Comput. 2003) that sum is d_w f,
    the divided difference of the longest minimal coset representative w
    of S_m / (S_k x S_(m-k)): the k(m-k) simple steps
    d_j f = (f - s_j f) / (v_j - v_(j+1)) for i = k down to 1 and
    j = i up to i + m - k - 1, in that order.  Splits act on disjoint
    variables, so their operators commute and are applied one after the
    other.

    No step divides by anything but its own v_j - v_(j+1), so nothing
    swells.  A split with one block (k = 0 or k = m) adds no step.  A
    factor is multiplied in just before the first step that moves one of
    its variables, since d_j treats a factor free of v_j and v_(j+1) as a
    constant; factors that involve no split are multiplied in last.
    """
    factors = Counter(lin)
    splits = [(tuple(vs), k) for vs, k in splits if 0 < k < len(vs)]
    for vs, k in splits:
        for block in (vs[:k], vs[k:]):
            for u, v in zip(block, block[1:]):
                swap = {u: v, v: u}
                if Counter((swap.get(y, y), swap.get(z, z)) for y, z in lin) != factors:
                    raise FoamValueError(
                        f"the base term is not symmetric in {u} and {v}")
    # the total degree never exceeds the number of factors
    layout = packed_layout({w for f in lin for w in f} | {w for vs, _ in splits for w in vs},
                           len(lin))

    cur, pending = MultiPoly.one().packed_on(layout), list(lin)
    for vs, k in splits:
        for i in range(k, 0, -1):
            for j in range(i, i + len(vs) - k):
                u, v = vs[j - 1], vs[j]
                held = []
                for f in pending:
                    if u in f or v in f:
                        cur = _dense_mul_linear(cur, layout, *f)
                    else:
                        held.append(f)
                pending = held
                cur = _dense_divided_difference(cur, layout, u, v)
    for y, z in pending:
        cur = _dense_mul_linear(cur, layout, y, z)
    return MultiPoly.from_packed(layout, cur)


@lru_cache(maxsize=256)
def sylvester_double_sum(A: VarAlphabet, B: VarAlphabet, p: int, q: int) -> MultiPoly:
    """Syl_{p,q}(A,B)(x), a polynomial of x-degree at most p + q.

    The term of Ap = a1..ap and Bp = b1..bq has the base
    f = R(x, Ap) R(x, Bp) R(Ap, Bp) R(Ac, Bc), symmetric in each of Ap,
    Ac, Bp and Bc, over the denominator R(Ap, Ac) R(Bp, Bc); every other
    term is its image under a coset of S_p x S_(m-p) in S_m and of
    S_q x S_(n-q) in S_n.  So the sum is `symmetrized_sum` of that base,
    a chain of p(m-p) + q(n-q) divided differences.  `sylvester_terms`
    keeps the flat term list, which `evaluate_overlap` of
    `diagram_sylvester` sums on its own through `fraction_free_sum`.
    """
    m, n = len(A), len(B)
    if not (0 <= p <= m and 0 <= q <= n):
        raise FoamValueError(f"(p, q) = {(p, q)} out of range for ({m}, {n})")
    Ap, Ac = A.variables[:p], A.variables[p:]
    Bp, Bc = B.variables[:q], B.variables[q:]
    lin = (r_factors(Ap, Bp) + r_factors(Ac, Bc)
           + r_factors(["x"], Ap) + r_factors(["x"], Bp))
    return symmetrized_sum(lin, [(A.variables, p), (B.variables, q)])


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


def _dot_value(dot: MultiPoly, color_vars) -> MultiPoly:
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


# ---------------------------------------------------------------------------
# Diagram families from the closed formulas


def diagram_sylvester(A: VarAlphabet, B: VarAlphabet, p: int, q: int) -> OverlapDiagram:
    """Two seamed 2-spheres plus a thickness-one surface; four circles."""
    fa = FlowerFoam(A, (p, len(A) - p))
    fb = FlowerFoam(B, (q, len(B) - q))
    fx = MaxSurface(VarAlphabet("X", ("x",)))
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


def _check_identity(lhs: Iterable[Term], rhs: Iterable[Term],
                    delta_alphabets, mode: str) -> bool:
    """Compare two term sums; the grid runs over the terms' variables."""
    lhs, rhs = list(lhs), list(rhs)
    if mode == "symbolic":
        return (fraction_free_sum(lhs, delta_alphabets)
                == fraction_free_sum(rhs, delta_alphabets))
    if mode != "grid":
        raise FoamValueError(f"unknown mode {mode!r}")
    terms = lhs + rhs
    points = grid_assignments(_collect_variables(terms, delta_alphabets),
                              cleared_degree(terms, delta_alphabets))
    return all(evaluate_terms_at(lhs, pt) == evaluate_terms_at(rhs, pt)
               for pt in points)


def verify_exchange(m: int, n: int, mode: str = "symbolic") -> list:
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
        ok = _check_identity(lhs(), rhs(), [A.variables, B.variables], mode)
        report.append({"d": d, "size_x": len(X), "ok": ok})
    return report


def verify_chen_louck(m: int, d: int, f: MultiPoly | None = None,
                      mode: str = "symbolic") -> dict:
    """The interpolation identity; f defaults to e_(m-d) of the slots."""
    if not 0 <= d <= m:
        raise FoamValueError(f"d = {d} out of range for m = {m}")
    k = m - d
    if f is None:
        f = esym(slots(k), k)
    A = alphabet("A", m)
    X = alphabet("X", k)
    lhs_value, rhs = chen_louck_sides(A, X, d, f)
    ok = _check_identity([Term((lhs_value,), (), ())], rhs(), [A.variables], mode)
    return {"m": m, "d": d, "ok": ok}


def verify_dksv(m: int, n: int, d: int, size_x: int, size_e: int,
                mode: str = "symbolic") -> dict:
    A = alphabet("A", m)
    B = alphabet("B", n)
    X = alphabet("X", size_x)
    E = alphabet("E", size_e)
    lhs, rhs = dksv_sides(A, B, X, E, d)
    ok = _check_identity(lhs(), rhs(), [A.variables, E.variables], mode)
    return {"m": m, "n": n, "d": d, "size_x": size_x, "size_e": size_e, "ok": ok}


def overlap_matches_polynomial(diagram: OverlapDiagram, poly_terms) -> bool:
    """Grid-mode equality of a diagram's state sum and a term sum."""
    return _check_identity(overlap_terms(diagram), poly_terms(),
                           _diagram_deltas(diagram), "grid")
