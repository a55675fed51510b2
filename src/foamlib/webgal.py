"""Theta-web invariants and Galois orbit decompositions of state spaces.

Two computations about the circle-of-thickness webs indexed by a
composition (a_1, ..., a_k) of N:

  q_multinomial        the balanced q-multinomial [N; a_1..a_k] =
                       [N]! / prod [a_i]!, a Laurent polynomial in q with
                       nonnegative integer coefficients, palindromic under
                       q <-> 1/q, whose value at q = 1 is the ordinary
                       multinomial; computed on dense coefficient lists in
                       q^2, one linear pass per quantum integer multiplied
                       in or divided out (LaurentQ, q_factorial and
                       divexact remain, as the definition spelled out);

  web_decomposition    after base change along an irreducible separable
                       polynomial f, the web state space is a product of
                       field extensions whose spectrum is the set of
                       orbits of the Galois group acting blockwise on
                       ordered set partitions of the roots of f with the
                       given block sizes.  Each orbit contributes one
                       factor of degree equal to the orbit size.

For finite fields the Galois action is the Frobenius cycle on the root
set of an irreducible polynomial; for rational splitting data the caller
supplies the permutation generators (validated against the supplied root
presentations).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate, combinations
from operator import sub

from .exactalg.ffield import is_irreducible_ff
from .exactalg.linalg import mat_inverse
from .exactalg.scalars import Zmod
from .exactalg.unipoly import UniPoly, poly_gcd


class WebError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Laurent polynomials in q


class LaurentQ:
    """Sparse integer Laurent polynomial in q; no zero coefficients stored."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        self.coeffs = {e: c for e, c in (coeffs or {}).items() if c != 0}

    @staticmethod
    def one() -> "LaurentQ":
        return LaurentQ({0: 1})

    @staticmethod
    def quantum_integer(m: int) -> "LaurentQ":
        """[m] = (q^m - q^-m)/(q - q^-1) = q^(m-1) + q^(m-3) + ... + q^(1-m)."""
        if m < 0:
            raise WebError("quantum integer of a negative number")
        return LaurentQ({m - 1 - 2 * i: 1 for i in range(m)})

    def __mul__(self, other):
        out: dict[int, int] = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
        return LaurentQ(out)

    def __eq__(self, other):
        return isinstance(other, LaurentQ) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def divexact(self, other: "LaurentQ") -> "LaurentQ":
        """Exact Laurent division; raises if not divisible."""
        if not other.coeffs:
            raise ZeroDivisionError("division by the zero Laurent polynomial")
        if not self.coeffs:
            return LaurentQ()
        num = dict(self.coeffs)
        out: dict[int, int] = {}
        lead = max(other.coeffs)
        lead_c = other.coeffs[lead]
        while num:
            top = max(num)
            c, r = divmod(num[top], lead_c)
            if r != 0:
                raise ArithmeticError("Laurent division is not exact")
            shift = top - lead
            out[shift] = out.get(shift, 0) + c
            for e, oc in other.coeffs.items():
                ne = e + shift
                num[ne] = num.get(ne, 0) - c * oc
                if num[ne] == 0:
                    del num[ne]
        return LaurentQ(out)

    def bar(self) -> "LaurentQ":
        """q -> 1/q."""
        return LaurentQ({-e: c for e, c in self.coeffs.items()})

    def is_palindromic(self) -> bool:
        return self.bar() == self

    def at_q1(self) -> int:
        return sum(self.coeffs.values())

    def render(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for e in sorted(self.coeffs, reverse=True):
            c = self.coeffs[e]
            if e == 0:
                body = str(abs(c))
            else:
                qp = "q" if e == 1 else ("q^-1" if e == -1 else f"q^{e}")
                body = qp if abs(c) == 1 else f"{abs(c)}*{qp}"
            if not parts:
                parts.append(("-" if c < 0 else "") + body)
            else:
                parts.append(("- " if c < 0 else "+ ") + body)
        return " ".join(parts)

    def __repr__(self):
        return f"LaurentQ({self.render()})"


@dataclass(frozen=True)
class Composition:
    parts: tuple[int, ...]

    def __post_init__(self):
        if any(p < 1 for p in self.parts):
            raise WebError("composition parts must be >= 1")

    @property
    def total(self) -> int:
        return sum(self.parts)


def _composition_of(N: int, parts) -> Composition:
    """parts as a Composition; WebError unless they sum to N."""
    comp = parts if isinstance(parts, Composition) else Composition(tuple(parts))
    if comp.total != N:
        raise WebError(f"parts {comp.parts} do not sum to N = {N}")
    return comp


def q_factorial(m: int) -> LaurentQ:
    out = LaurentQ.one()
    for i in range(1, m + 1):
        out = out * LaurentQ.quantum_integer(i)
    return out


def _times_qint(c: list, i: int) -> list:
    """c * (1 + v + ... + v^(i-1)), the coefficient list of a polynomial in
    v = q^2: every output entry is a window sum of i inputs, read off the
    prefix sums S as S[k + 1] - S[k + 1 - i]."""
    S = list(accumulate(c + [0] * (i - 1), initial=0))
    return S[1:i] + list(map(sub, S[i:], S))


def _over_qint(c: list, j: int) -> list:
    """c / (1 + v + ... + v^(j-1)), exactly: c * (1 - v) divided by
    1 - v^j, whose quotient obeys q[k] = d[k] + q[k - j], so each residue
    class mod j is one running sum.  ArithmeticError unless the top j
    entries of those sums, the remainder, vanish."""
    d = list(map(sub, c + [0], [0] + c))
    for r in range(j):
        d[r::j] = accumulate(d[r::j])
    n = max(len(d) - j, 0)
    if any(d[n:]):
        raise ArithmeticError("Laurent division is not exact")
    return d[:n]


def q_multinomial(N: int, parts) -> LaurentQ:
    """Balanced q-multinomial [N; a_1, ..., a_k] = [N]! / prod [a_i]!.

    Computed on a dense coefficient list in v = q^2, on which the balanced
    [m] is q^(1-m) (1 + v + ... + v^(m-1)): with the largest part's [a]!
    cancelled first, each [i] for a < i <= N is multiplied in by one
    window-sum pass, and each [j], 2 <= j <= b, of every other part b is
    divided out by one exact pass (_over_qint).  The result is palindromic,
    so v^e of a degree-D list is q^(2e - D).
    """
    comp = _composition_of(N, parts)
    rest = sorted(comp.parts)
    top = rest.pop() if rest else 0
    c = [1]
    for i in range(top + 1, N + 1):
        c = _times_qint(c, i)
    for a in rest:
        for j in range(2, a + 1):
            c = _over_qint(c, j)
    deg = len(c) - 1
    return LaurentQ({2 * e - deg: x for e, x in enumerate(c)})


def multinomial(N: int, parts) -> int:
    comp = _composition_of(N, parts)
    out = 1
    rest = N
    for a in comp.parts:
        out *= math.comb(rest, a)
        rest -= a
    return out


# ---------------------------------------------------------------------------
# Galois orbit decomposition


@dataclass(frozen=True)
class WebDecomposition:
    """Multiset of (field degree, multiplicity) with the total dimension."""

    factors: tuple[tuple[int, int], ...]
    total_dimension: int


def _ordered_partitions(items: tuple, sizes: tuple[int, ...]):
    if not sizes:
        yield ()
        return
    k = sizes[0]
    for block in combinations(items, k):
        rest = tuple(x for x in items if x not in block)
        for tail in _ordered_partitions(rest, sizes[1:]):
            yield (frozenset(block),) + tail


def _orbits(points: list, generators: list[dict]) -> list[list]:
    seen = set()
    orbits = []
    index = {pt: i for i, pt in enumerate(points)}
    for pt in points:
        if pt in seen:
            continue
        orbit = []
        stack = [pt]
        seen.add(pt)
        while stack:
            cur = stack.pop()
            orbit.append(cur)
            for g in generators:
                img = tuple(frozenset(g[x] for x in block) for block in cur)
                if img not in seen:
                    seen.add(img)
                    stack.append(img)
        orbits.append(orbit)
    return orbits


def web_decomposition_from_action(N: int, parts, generators: list[dict]) -> WebDecomposition:
    """Orbit decomposition given the Galois action on abstract roots 0..N-1."""
    comp = _composition_of(N, parts)
    points = list(_ordered_partitions(tuple(range(N)), comp.parts))
    orbits = _orbits(points, generators)
    sizes: dict[int, int] = {}
    for orbit in orbits:
        sizes[len(orbit)] = sizes.get(len(orbit), 0) + 1
    factors = tuple(sorted(sizes.items()))
    total = sum(deg * mult for deg, mult in factors)
    if total != multinomial(N, comp):
        raise AssertionError("orbit sizes do not add up to the multinomial")
    return WebDecomposition(factors, total)


def web_decomposition(f: UniPoly, parts) -> WebDecomposition:
    """Decomposition of the base-changed web state space for irreducible f.

    Over Z/p the Galois group is generated by the Frobenius cycle on the
    N roots; the ordered-set-partition orbits give the field factors.
    """
    if not isinstance(f.dom, Zmod):
        raise WebError(
            "automatic decomposition needs a finite field; "
            "use web_decomposition_from_action for rational splitting data"
        )
    if not f.is_monic():
        raise WebError("f must be monic")
    if poly_gcd(f, f.derivative()).degree != 0:
        raise WebError("f must be separable")
    if not is_irreducible_ff(f):
        raise WebError("f must be irreducible")
    N = f.degree
    # roots are one Frobenius orbit: lambda, lambda^p, ..., cyclically
    frob = {i: (i + 1) % N for i in range(N)}
    return web_decomposition_from_action(N, parts, [frob])


def validated_root_permutations(f: UniPoly, roots: list[UniPoly],
                                generator_perms: list[list[int]]) -> list[dict]:
    """Check that supplied permutations act as field automorphisms.

    roots[i] are polynomial presentations of all roots in the splitting
    presentation QQ[x]/(f); a permutation s is accepted when the map
    roots[i] -> roots[s[i]] extends the automorphism x -> roots[s[id]],
    i.e. for every i, roots[s[i]] equals roots[i] evaluated at the image
    of the generator.
    """
    from .fieldext import RationalNumberField

    backend = RationalNumberField(f, roots)
    n = f.degree
    root_elems = list(backend.roots)
    gen = backend.field.gen()
    gen_index = root_elems.index(gen)
    out = []
    for perm in generator_perms:
        if sorted(perm) != list(range(n)):
            raise WebError(f"{perm} is not a permutation of 0..{n-1}")
        sigma = backend.automorphism_by_root(perm[gen_index])
        for i in range(n):
            if sigma(root_elems[i]) != root_elems[perm[i]]:
                raise WebError(
                    f"permutation {perm} does not preserve the root relations"
                )
        out.append({i: perm[i] for i in range(n)})
    return out


# ---------------------------------------------------------------------------
# Disk state-space basis check


def disk_dot_basis_check(f: UniPoly) -> dict:
    """1, a, ..., a^(N-1) are independent in GF(p)[x]/(f) and the
    multiplication-by-a map has characteristic polynomial f."""
    if not isinstance(f.dom, Zmod):
        raise WebError("basis check runs over a prime field")
    if not is_irreducible_ff(f):
        raise WebError("f must be irreducible")
    N = f.degree
    dom = f.dom
    from .exactalg.unipoly import poly_mod

    # powers of the generator in the power basis: the identity matrix,
    # but compute honestly by reduction
    rows = []
    for i in range(N):
        xi = poly_mod(UniPoly.one(dom).shift(i), f)
        rows.append([xi.coeff(j) for j in range(N)])
    try:
        mat_inverse(dom, rows)
        independent = True
    except ValueError:
        independent = False

    # companion matrix of multiplication by the generator
    comp = [[dom.zero] * N for _ in range(N)]
    for i in range(N):
        xi1 = poly_mod(UniPoly.one(dom).shift(i + 1), f)
        for j in range(N):
            comp[j][i] = xi1.coeff(j)
    charpoly = _charpoly(dom, comp)
    return {
        "independent": independent,
        "charpoly_is_f": charpoly == f,
        "charpoly": charpoly,
    }


def _charpoly(dom, M) -> UniPoly:
    """det(xI - M) by minor expansion over the polynomial ring (N <= 6)."""
    n = len(M)
    x = UniPoly.x(dom)
    entries = [
        [
            (x if i == j else UniPoly.zero(dom)) - UniPoly.const(dom, M[i][j])
            for j in range(n)
        ]
        for i in range(n)
    ]

    def det(rows, cols):
        if len(cols) == 1:
            return entries[rows[0]][cols[0]]
        total = UniPoly.zero(dom)
        r = rows[0]
        rest = rows[1:]
        for k, c in enumerate(cols):
            minor = det(rest, cols[:k] + cols[k + 1:])
            term = entries[r][c] * minor
            if k % 2 == 1:
                term = -term
            total = total + term
        return total

    return det(list(range(n)), list(range(n)))
