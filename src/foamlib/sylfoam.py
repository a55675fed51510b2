"""R-products, Sylvester double sums, and overlapping flower foams.

All computations are exact.  Every closed side checked here (the
Sylvester double sum, both sides of the Exchange and DKSV identities,
the right side of the Chen-Louck interpolation formula) is a `CosetSum`:
a base term of R-products and symmetric dots on the blocks of splits of
alphabets, summed over the cosets of the Young subgroups of the splits,
that is over ordered set partitions, over R(block, block) denominators
(Lascoux & Pragacz, J. Symb. Comput. 2003).  `CosetSum.symbolic` sums
it by chains of exact divided differences of the base, whose block
symmetry it certifies first; `CosetSum.terms` enumerates it into
factored `Term`s (small polynomials and lists of linear differences).

Only overlap diagrams are summed flat, cleared by the lcm of their term
denominators (`fraction_free_sum`), over their own colorings, so
`evaluate_overlap` checks each closed side on an independent route.
Both routes run the dense kernels of `exactalg.multipoly` on one packed
layout and return a `MultiPoly` with no decode.

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

Identity verifiers compare two closed sides in two modes: "symbolic"
compares `CosetSum.symbolic` (a proof); "grid" evaluates the terms of
both sides exactly at the D + 1 points of one integer line
(`grid_assignments`), which proves the identity on that line only:
evidence, not a proof.  D is the larger of the sides' own degree bounds
(`CosetSum.certified_degree`, read off the base that `symbolic`'s
certificate shows block-symmetric; a plain polynomial side's degree), at
least 0; if a side fails the certificate, D is the degree of the
difference cleared by the Vandermonde product (`cleared_degree`), as it
stays for overlap terms (`overlap_matches_polynomial`).
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


def _dot_value(dot: MultiPoly, color_vars) -> MultiPoly:
    return dot.subs_vars(dict(zip(slots(len(color_vars)), color_vars)))


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
    Grid mode checks every denominator here, and runs its line at this
    degree only for overlap terms and for a side that fails the symmetry
    certificate; certified coset sums need no more than their own
    degree (`CosetSum.certified_degree`).
    """
    which = {}  # each factor of V, in either orientation, to one number
    for vs in delta_alphabets:
        for u, v in vandermonde_factors(vs):
            which[u, v] = which[v, u] = len(which)
    top = 0
    for t in terms:
        den = {which.get(f, -1) for f in t.den}
        if len(den) != len(t.den) or -1 in den:
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
        cur = {0: sign}  # the constant +-1, on any layout
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
# Closed sides: coset sums


@lru_cache(maxsize=256)  # a split recurs across the identities of one run
def _ordered_partitions(vs: tuple[str, ...], sizes: tuple[int, ...]) -> tuple:
    """The ordered set partitions of vs with the given block sizes, each
    block in vs's order, with the factors of prod_{i<j} R(B_i, B_j)."""
    parts = [((), vs)]  # (blocks chosen, names left)
    for k in sizes[:-1]:
        parts = [(done + (b,), tuple([v for v in left if v not in b]))
                 for done, left in parts for b in itertools.combinations(left, k)]
    out = []
    for done, left in parts:
        blocks = done + (left,)
        out.append((blocks, tuple([(u, w) for i, bi in enumerate(blocks)
                                   for bj in blocks[i + 1:] for u in bi for w in bj])))
    return tuple(out)


@dataclass
class CosetSum:
    """A closed side: a base term summed over the cosets of Young subgroups.

    A split (V, sizes) has two or more blocks, and its cosets are the
    ordered set partitions (B_1, ..., B_r) of V with |B_i| = sizes[i],
    each block in V's order.  The term of one coset of every split is
    prod R(Y, Z) over `rprods` times prod dot(B) over `dots`, over
    prod_{i<j} R(B_i, B_j) for each split: Y and Z are name tuples or
    blocks, a block named by the pair of ints (split, index), and a dot is
    a symmetric polynomial in slots(|B|) put on its block B.  The block
    order fixes the denominator's orientation.  The base term takes V's
    consecutive runs as its blocks.  `terms` (also the call) enumerates
    the cosets; `symbolic` sums them.
    """

    rprods: tuple
    dots: tuple = ()
    splits: tuple = ()

    def __post_init__(self):
        # the base's blocks, those of splits with a chain, (alphabet, k) per
        # two-block chain, and where each split's blocks start in `base`
        seen, base, moved, chains, offsets = set(), [], [], [], [0]
        for vs, sizes in self.splits:
            if len(sizes) < 2 or min(sizes) < 0 or sum(sizes) != len(vs):
                raise FoamValueError(f"block sizes {tuple(sizes)} are no split of "
                                     f"{len(vs)} variables into two or more blocks")
            seen.update(vs)
            k = 0
            for size in sizes:
                base.append(vs[k:k + size])
                if k and size:
                    chains.append((vs[:k + size], k))
                k += size
            if len(sizes) - sizes.count(0) > 1:
                moved += base[offsets[-1]:]
            offsets.append(len(base))
        fixed: list[tuple] = []  # the name tuples, indexed after the blocks

        def index(side):
            if side and type(side[0]) is int:
                return offsets[side[0]] + side[1]
            fixed.append(tuple(side))
            return len(base) + len(fixed) - 1

        self._pairs = [(index(Y), index(Z)) for Y, Z in self.rprods]
        self._dot_at = [(dot, index(b)) for dot, b in self.dots]
        for dot, i in self._dot_at:
            if not dot.variables() <= set(sl := slots(len(base[i]))):
                raise FoamValueError(f"dot {dot.render()} must use slot variables {sl}")
        self._fixed, self._base, self._chains, self._moved = fixed, base, chains, moved
        # a name of a split alphabet written out is moved by `symbolic`, not by `terms`
        self._moves_fixed = not all(map(seen.isdisjoint, fixed))

    @property
    def alphabets(self) -> list[tuple[str, ...]]:
        return [vs for vs, _ in self.splits]

    def _factors(self, blocks: list) -> tuple[list, list]:
        """The linear factors and dot polynomials, given every block."""
        sides = blocks + self._fixed
        return ([(y, z) for i, j in self._pairs for y in sides[i] for z in sides[j]],
                [_dot_value(dot, sides[i]) for dot, i in self._dot_at])

    def terms(self):
        """The flat sum: one `Term` per choice of coset for every split."""
        if self._moves_fixed:
            raise FoamValueError("terms() needs fixed names outside the split alphabets")
        for combo in itertools.product(*[_ordered_partitions(tuple(vs), tuple(sizes))
                                         for vs, sizes in self.splits]):
            lin, polys = self._factors([b for blocks, _ in combo for b in blocks])
            yield Term(tuple(polys), tuple(lin), tuple([f for _, den in combo for f in den]))

    __call__ = terms

    def _bad_swap(self, lin: list, dots: list):
        """The certificate that the base term is symmetric in each block of
        a split with two or more nonempty blocks: the first adjacent
        transposition in such a block that changes the multiset of linear
        factors `lin` or a dot of `dots` (`subs_vars` of the swap), or None."""
        swaps = [(u, v) for block in self._moved for u, v in zip(block, block[1:])]
        if not swaps:
            return None
        factors = Counter(lin)
        for u, v in swaps:
            swap = {u: v, v: u}
            if (Counter((swap.get(y, y), swap.get(z, z)) for y, z in lin) != factors
                    or any(dot.subs_vars(swap) != dot for dot in dots)):
                return u, v
        return None

    def certified_degree(self) -> int | None:
        """A total degree bound of the sum, or None if the base fails the
        block-symmetry certificate of `symbolic`.

        A certified sum is d_w of the base's numerator for each split
        (`symbolic`), and d_w lowers the degree by the length of w,
        sum_{i<j} k_i k_j for block sizes k_1..k_r; so the bound is
        len(lin) + the dot degrees - that length over the splits, the same
        for every coset.  A negative bound means the sum is zero.
        """
        lin, dots = self._factors(self._base)
        if self._bad_swap(lin, dots) is not None:
            return None
        return (len(lin) + sum(dot.total_degree() for dot in dots)
                - sum((len(vs) ** 2 - sum(k * k for k in sizes)) // 2
                      for vs, sizes in self.splits))

    def symbolic(self) -> MultiPoly:
        """The sum, as nested chains of divided differences of the base.

        A split with block sizes k_1..k_r is r - 1 two-block chains, inner
        first: the i-th sums g / R(first, rest) over the cosets of
        V[:k_1+..+k_(i+1)] split after k = k_1+..+k_i, g being the output
        of the chain before it.  That sum is d_w g for the longest minimal
        coset representative w of S_n / (S_k x S_(n-k)) (Lascoux & Pragacz
        2003): the k(n-k) steps d_j g = (g - s_j g) / (v_j - v_(j+1)) for
        i = k down to 1 and j = i up to i + n - k - 1.  Chains of different
        splits act on disjoint variables, so they commute.

        A chain needs its input symmetric in both its blocks.  Its last
        block is a block of the split, where the base's symmetry is
        certified by adjacent transpositions, on the factor multiset and on
        each dot by `subs_vars` of the swap (`_bad_swap`; FoamValueError
        otherwise).  Its first block is the alphabet of the chain before
        it, whose output is symmetric there by construction, so those
        swaps are skipped; the first chain certifies both.  A split with
        one nonempty block is one coset and needs no certificate.  Grid
        mode reads the same certificate, through `certified_degree`, to
        check a side on only as many points as its own degree needs.

        Each step is one pass of the monomial formula in v_j and v_(j+1)
        only (`_dense_divided_difference`), so nothing swells.  g - s_j g
        always vanishes at v_j = v_(j+1), so a step has no remainder to
        check; the symmetry certificate is what makes the chain the sum.
        A factor or dot is multiplied in just before the first step that
        moves one of its variables (d_j treats a factor free of v_j and
        v_(j+1) as a constant); the rest are multiplied in last.
        """
        lin, dots = self._factors(self._base)
        if (bad := self._bad_swap(lin, dots)) is not None:
            raise FoamValueError("the base term is not symmetric in %s and %s" % bad)
        # every name of a block or dot is in a split alphabet, and the total
        # degree never exceeds that of the base
        layout = packed_layout(set().union(*self.alphabets, *self._fixed),
                               len(lin) + sum(dot.total_degree() for dot in dots))

        def times(cur, factor):
            if isinstance(factor, MultiPoly):
                return _dense_mul(cur, factor.packed_on(layout))
            return _dense_mul_linear(cur, layout, *factor)

        cur = {0: 1}  # the constant 1, on any layout
        pending = [(f, f) for f in lin] + [(dot.variables(), dot) for dot in dots]
        for vs, k in self._chains:
            for i in range(k, 0, -1):
                for j in range(i, i + len(vs) - k):
                    u, v = vs[j - 1], vs[j]
                    held = []
                    for names, factor in pending:
                        if u in names or v in names:
                            cur = times(cur, factor)
                        else:
                            held.append((names, factor))
                    pending = held
                    cur = _dense_divided_difference(cur, layout, u, v)
        for _, factor in pending:
            cur = times(cur, factor)
        return MultiPoly.from_packed(layout, cur)


def sylvester_side(A: VarAlphabet, B: VarAlphabet, p: int, q: int) -> CosetSum:
    """Syl_{p,q}(A, B)(x) as a coset sum: the base
    R(x, Ap) R(x, Bp) R(Ap, Bp) R(Ac, Bc) over R(Ap, Ac) R(Bp, Bc), A split
    as (Ap | Ac) with |Ap| = p and B as (Bp | Bc) with |Bp| = q."""
    m, n = len(A), len(B)
    if not (0 <= p <= m and 0 <= q <= n):
        raise FoamValueError(f"(p, q) = {(p, q)} out of range for ({m}, {n})")
    Ap, Ac, Bp, Bc = (0, 0), (0, 1), (1, 0), (1, 1)
    return CosetSum(((Ap, Bp), (Ac, Bc), (("x",), Ap), (("x",), Bp)), (),
                    ((A.variables, (p, m - p)), (B.variables, (q, n - q))))


@lru_cache(maxsize=256)
def sylvester_double_sum(A: VarAlphabet, B: VarAlphabet, p: int, q: int) -> MultiPoly:
    """Syl_{p,q}(A,B)(x), a polynomial of x-degree at most p + q, by the
    p(m-p) + q(n-q) divided differences of `sylvester_side`;
    `evaluate_overlap` of `diagram_sylvester` sums it on its own."""
    return sylvester_side(A, B, p, q).symbolic()


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
        for _, comp in self.components:
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
                elif idx is not None:
                    raise FoamValueError(f"surface {nm} has only a body (index None)")


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
    return [c.alphabet.variables for _, c in diagram.components if isinstance(c, FlowerFoam)]


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
    return OverlapDiagram((("A", fa), ("B", fb), ("X", fx)),
                          ((("A", 0), ("B", 0)), (("A", 1), ("B", 1)),
                           (("X", None), ("A", 0)), (("X", None), ("B", 0))))


def diagram_product_formula_sides(A: VarAlphabet, X: VarAlphabet, d: int):
    """LHS/RHS diagrams of the interpolation identity for e_(m-d)."""
    m = len(A)
    e_top = esym(slots(m - d), m - d)
    lhs = OverlapDiagram((("X", MaxSurface(X, genus=1, dots=(e_top,))),))
    fa = FlowerFoam(A, (d, m - d), (None, e_top), flipped_pairs=frozenset({(0, 1)}))
    rhs = OverlapDiagram((("X", MaxSurface(X, genus=1)), ("A", fa)),
                         ((("X", None), ("A", 0)),))
    return lhs, rhs


def diagram_exchange_sides(A: VarAlphabet, B: VarAlphabet, X: VarAlphabet, d: int):
    fa = FlowerFoam(A, (d, len(A) - d), flipped_pairs=frozenset({(0, 1)}))
    lhs = OverlapDiagram(
        (("A", fa), ("B", MaxSurface(B, genus=1)), ("X", MaxSurface(X, genus=1))),
        ((("X", None), ("A", 0)), (("A", 1), ("B", None))))
    rhs = OverlapDiagram(
        (("B", FlowerFoam(B, (d, len(B) - d))), ("A", MaxSurface(A, genus=1)),
         ("X", MaxSurface(X, genus=1))),
        ((("X", None), ("B", 0)), (("A", None), ("B", 1))))
    return lhs, rhs


def diagram_dksv_sides(A: VarAlphabet, B: VarAlphabet, X: VarAlphabet,
                       E: VarAlphabet, d: int):
    m = len(A)
    lhs = OverlapDiagram(
        (("A", FlowerFoam(A, (d, m - d))), ("B", MaxSurface(B)), ("X", MaxSurface(X))),
        ((("A", 1), ("B", None)), (("X", None), ("A", 0))))
    rhs = OverlapDiagram(
        (("E", FlowerFoam(E, (d, m - d, len(E) - m))), ("A", MaxSurface(A)),
         ("B", MaxSurface(B)), ("X", MaxSurface(X))),
        ((("A", None), ("E", 2)), (("E", 1), ("B", None)), (("X", None), ("E", 0))))
    return lhs, rhs


# ---------------------------------------------------------------------------
# Closed-formula sides (the identity oracles)


def exchange_sides_terms(A: VarAlphabet, B: VarAlphabet, X: VarAlphabet, d: int):
    """The two sides of the exchange identity: R(Ac, B) R(X, Ap) over
    R(Ac, Ap), A split as (Ac | Ap) with |Ap| = d, and R(A, Bc) R(X, Bp)
    over R(Bp, Bc), B split as (Bp | Bc) with |Bp| = d."""
    m, n = len(A), len(B)
    Ac, Ap = (0, 0), (0, 1)
    Bp, Bc = (0, 0), (0, 1)
    lhs = CosetSum(((Ac, B.variables), (X.variables, Ap)), (), ((A.variables, (m - d, d)),))
    rhs = CosetSum(((A.variables, Bc), (X.variables, Bp)), (), ((B.variables, (d, n - d)),))
    return lhs, rhs


def chen_louck_sides(A: VarAlphabet, X: VarAlphabet, d: int, f: MultiPoly):
    """f(X), and its interpolation f(Ac) R(X, Ap) over R(Ac, Ap), A split
    as (Ac | Ap) with |Ap| = d."""
    k = len(A) - d
    if len(X) != k:
        raise FoamValueError(f"need |X| = m - d = {k}, got {len(X)}")
    for v in sorted(f.variables()):
        if f.degree_in(v) > d:
            raise FoamValueError(f"dot polynomial has degree {f.degree_in(v)} > d = {d} in {v}")
    if not is_symmetric(f, slots(k)):
        raise FoamValueError("dot polynomial must be symmetric")
    Ac, Ap = (0, 0), (0, 1)
    rhs = CosetSum(((X.variables, Ap),), ((f, Ac),), ((A.variables, (k, d)),))
    return _dot_value(f, X.variables), rhs


def dksv_sides(A: VarAlphabet, B: VarAlphabet, X: VarAlphabet, E: VarAlphabet,
               d: int):
    """The three-alphabet partition identity: R(A2, B) R(X, A1) over
    R(A1, A2), A split as (A1 | A2) with |A1| = d, and
    R(A, E3) R(E2, B) R(X, E1) over R(E1, E2) R(E1, E3) R(E2, E3), E split
    as (E1 | E2 | E3) with |E1| = d and |E2| = m - d."""
    m, n = len(A), len(B)
    if not 0 <= d <= m:
        raise FoamValueError(f"d = {d} out of range for m = {m}")
    if len(E) < max(len(X) + d, m + n - d, m):
        raise FoamValueError(
            f"|E| = {len(E)} below max(|X|+d, m+n-d, m) = "
            f"{max(len(X) + d, m + n - d, m)}"
        )
    A1, A2 = (0, 0), (0, 1)
    E1, E2, E3 = (0, 0), (0, 1), (0, 2)
    lhs = CosetSum(((A2, B.variables), (X.variables, A1)), (), ((A.variables, (d, m - d)),))
    rhs = CosetSum(((A.variables, E3), (E2, B.variables), (X.variables, E1)), (),
                   ((E.variables, (d, m - d, len(E) - m)),))
    return lhs, rhs


# ---------------------------------------------------------------------------
# Verification modes


def grid_assignments(variables: Sequence[str], degree: int):
    """Integer points t = 0..degree on the line v_i = 1 + i*(degree+2) + i^2*t.

    `degree` is a total degree bound D of the difference of the sides:
    the larger of their `CosetSum.certified_degree`s (a plain polynomial
    side its own degree, and at least 0), or, if a side fails that
    certificate, the cleared degree (`cleared_degree`) of the difference
    times the Vandermonde product.  Along the line that is a univariate
    polynomial of degree at most D, so the D + 1 points prove that it
    vanishes on the whole line (not everywhere).  Since
    v_i - v_j = (i-j)(D+2+(i+j)t), no two variables ever meet and the
    differences vary from point to point.
    """
    vs = list(variables)
    step = degree + 2
    for t in range(degree + 1):
        yield {v: 1 + i * step + i * i * t for i, v in enumerate(vs)}


def _grid_agrees(lhs: Iterable[Term], rhs: Iterable[Term], delta_alphabets,
                 degree: int | None = None) -> bool:
    """Two term sums agree on the grid line over the terms' variables, at
    `degree` + 1 points (by default the cleared degree's; the denominators
    are checked against V either way)."""
    lhs, rhs = list(lhs), list(rhs)
    terms = lhs + rhs
    cleared = cleared_degree(terms, delta_alphabets)
    points = grid_assignments(_collect_variables(terms, delta_alphabets),
                              cleared if degree is None else degree)
    return all(evaluate_terms_at(lhs, pt) == evaluate_terms_at(rhs, pt)
               for pt in points)


def _check_identity(lhs, rhs: CosetSum, mode: str) -> bool:
    """Compare two closed sides; the left one may be a plain polynomial."""
    if mode == "symbolic":
        return (lhs if isinstance(lhs, MultiPoly) else lhs.symbolic()) == rhs.symbolic()
    if mode != "grid":
        raise FoamValueError(f"unknown mode {mode!r}")
    # both sides polynomials of certified degree: the line needs only that many
    # points (and one at least); otherwise the cleared degree's
    lhs_degree = lhs.total_degree() if isinstance(lhs, MultiPoly) else lhs.certified_degree()
    rhs_degree = rhs.certified_degree()
    degree = (None if lhs_degree is None or rhs_degree is None
              else max(0, lhs_degree, rhs_degree))
    if isinstance(lhs, MultiPoly):
        return _grid_agrees([Term((lhs,), (), ())], rhs.terms(), rhs.alphabets, degree)
    return _grid_agrees(lhs.terms(), rhs.terms(), lhs.alphabets + rhs.alphabets, degree)


def verify_exchange(m: int, n: int, mode: str = "symbolic") -> list:
    """Exchange identity for all 0 <= d <= min(m, n), with |X| = m + n - 2d.

    The identity fails for larger X-alphabets, so the maximal valid size
    is used; smaller sizes follow by specializing X-variables.
    """
    A, B = alphabet("A", m), alphabet("B", n)
    report = []
    for d in range(min(m, n) + 1):
        X = alphabet("X", m + n - 2 * d)
        ok = _check_identity(*exchange_sides_terms(A, B, X, d), mode)
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
    ok = _check_identity(*chen_louck_sides(alphabet("A", m), alphabet("X", k), d, f), mode)
    return {"m": m, "d": d, "ok": ok}


def verify_dksv(m: int, n: int, d: int, size_x: int, size_e: int,
                mode: str = "symbolic") -> dict:
    sides = dksv_sides(alphabet("A", m), alphabet("B", n), alphabet("X", size_x),
                       alphabet("E", size_e), d)
    ok = _check_identity(*sides, mode)
    return {"m": m, "n": n, "d": d, "size_x": size_x, "size_e": size_e, "ok": ok}


def overlap_matches_polynomial(diagram: OverlapDiagram, side: CosetSum) -> bool:
    """Grid-mode equality of a diagram's state sum and a closed side."""
    return _grid_agrees(overlap_terms(diagram), side(), _diagram_deltas(diagram))
