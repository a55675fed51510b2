"""Frobenius-algebra backends: field towers, number fields, table algebras.

A backend packages a commutative Frobenius algebra (or a tower of them)
over a ground field, together with everything the surface evaluators
need: traces to the ground field, dual bases, automorphisms, inclusions
and relative traces between tower levels, and minimal idempotents over a
splitting level.

Three kinds:

  FiniteFieldTower      GF(p^d0) < GF(p^d1) < ... with canonical traces;
                        fully automatic (moduli, embeddings, Galois action
                        all computed).
  RationalNumberField   QQ < QQ[x]/(f); Galois operations need the caller
                        to supply all roots of f as polynomials in the
                        generator (exact factorization over number fields
                        is deliberately out of scope).
  TableAlgebra          an explicit structure-constant algebra with a
                        trace vector; the ground field is QQ or Z/p.  It
                        keeps its own arithmetic and trace, has no level
                        maps and no Galois operations (they raise
                        BackendError).

An element is a tuple of coefficients in the backend's prime_field (GF(p)
for a tower, QQ for a number field, the ground for a table algebra), except
at the rational level of a number field, whose elements are Fractions.

The level layer of the two field kinds is written once, in
FrobeniusBackend.  Level i is the scalar domain fields[i] (GF(p^d_i); QQ
and QQ[x]/(f)), which gives zero, one, add and mul; basis is the powers of
generator(level).  Every level map is linear over the prime field on
prime_coeffs, so it is one matrix over prime_field, built on first use and
cached: include, relative_trace and trace_to_ground are one matrix-vector
product, scalar_mul multiplies by the inclusion of the scalar, and
_pull_back is a linear solve on the inclusion matrix, which raises
ValueError for an element outside the image.  An element given by its
coordinates over the ground, sum_k c_k g^k (random_element, the dual
bases), is one product with the level's coordinate matrix, whose column
(k, j) is e_j g^k for e_j the prime basis of the ground; over GF(p) or QQ
it is the identity.  A table algebra's coordinates are its element.  A
field kind supplies the matrices and the facts that differ by kind:

  dim(level)                     d_i / d0; 1 and deg f
  _inclusion_matrix(lo, hi)      the steps to the smallest roots of the
                                 moduli; one column, the image of 1
  _trace_matrix(hi, lo)          Frobenius sums; one row, tr(x^k) from
                                 companion_trace
  prime_coeffs(level, a)         a itself; (a,) for a rational a
  _from_prime_coeffs(level, v)   v itself; v[0] at the rational level

An automorphism is one matrix over the prime field, and applying,
composing, inverting and the identity test are written once, in
Automorphism; a kind supplies only its constructor (frobenius_automorphism,
automorphism_by_root, matrix_automorphism), and identity_automorphism is
shared.  validate_automorphism checks any of them the same way.

The Galois layer is written once, in FrobeniusBackend: embeddings,
automorphism_embedding_action, minpoly_over_ground_in_top and
idempotents.  Each embedding of a level into the splitting field is fixed
by one root, the image of the level generator, and sends an element to
its prime-field coefficients evaluated at that root.  A field backend
supplies the Galois facts that differ by kind:

  splitting_field()         the top field of a tower; QQ[x]/(f)
  generator(level)          the level generator (1 for QQ)
  embedding_roots(level)    G^(q0^s), s < dim, G the generator's image in
                            the top field; the supplied roots of f

All backends are validated at construction and immutable afterwards;
every operation is a pure function.  Level 0 of a tower is the ground
field itself, so facets labelled by the ground field work uniformly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Sequence

from .exactalg.ffield import ExtField, GF, NumberField, roots_in_extension
from .exactalg.linalg import mat_inverse, solve
from .exactalg.multipoly import parse_poly, parse_unipoly
from .exactalg.scalars import QQ_DOMAIN, zmod
from .exactalg.unipoly import UniPoly, companion_trace, lagrange_basis


class BackendError(ValueError):
    """Raised when a backend descriptor violates a construction invariant."""


# ---------------------------------------------------------------------------
# Automorphisms


@dataclass(frozen=True)
class Automorphism:
    """An epsilon-automorphism of one level of a backend.

    action is its matrix over the backend's prime field (GF(p) for a
    tower, QQ for a number field, the ground for a table algebra), a tuple
    of rows acting on the level's coefficient tuples: column j is the image
    of the j-th unit coefficient vector.  Applying, composing, inverting
    and the identity test are matrix operations, the same for every kind.
    Build one with a backend's constructor (frobenius_automorphism,
    automorphism_by_root, matrix_automorphism, identity_automorphism);
    automorphism_by_root and matrix_automorphism validate what they build.
    """

    backend: "FrobeniusBackend"
    level: int
    action: tuple

    def __call__(self, a):
        # the images of the nonzero coefficients only: dense Fraction
        # products of zeros would cost more than the rest of the sum
        out = [0] * len(self.action)
        for j, c in enumerate(a):
            if c:
                for i, row in enumerate(self.action):
                    if row[j]:
                        out[i] += c * row[j]
        return tuple(map(self.backend.prime_field.of, out))

    def compose(self, other: "Automorphism") -> "Automorphism":
        """self after other: (self * other)(a) = self(other(a))."""
        if self.level != other.level:
            raise BackendError("cannot compose automorphisms of different levels")
        return Automorphism(self.backend, self.level,
                            _transpose(map(self, zip(*other.action))))

    def inverse(self) -> "Automorphism":
        inv = mat_inverse(self.backend.prime_field, self.action)
        return Automorphism(self.backend, self.level, tuple(map(tuple, inv)))

    def is_identity(self) -> bool:
        return all(x == (i == j) for i, row in enumerate(self.action)
                   for j, x in enumerate(row))


@dataclass(frozen=True)
class DualBasisPair:
    xs: tuple
    ys: tuple


@dataclass(frozen=True)
class IdempotentIndex:
    """Minimal idempotents of level otimes splitting field, indexed by roots.

    polys[k] is e_k as a UniPoly over the splitting field Omega, reduced
    modulo the level's minimal polynomial over the ground field; roots[k]
    is the corresponding root (the image of the level generator under the
    k-th embedding into Omega).
    """

    level: int
    omega: ExtField
    minpoly: UniPoly
    roots: tuple
    polys: tuple

    def extended_trace(self, h: UniPoly):
        """epsilon-bar of an element of L tensor Omega: root-evaluation sum."""
        acc = self.omega.zero
        for lam in self.roots:
            acc = self.omega.add(acc, h.eval(lam))
        return acc


# ---------------------------------------------------------------------------
# Shared machinery


class FrobeniusBackend:
    """Common interface, with the level layer and the Galois layer of the
    field kinds; a kind supplies the hooks named in the module docstring,
    and a table algebra overrides the arithmetic and refuses level maps."""

    kind: str
    ground = None  # scalar domain
    prime_field = None  # the domain of the coefficients in an element tuple
    level_names: tuple[str, ...]

    # --- levels ---------------------------------------------------------

    @property
    def num_levels(self) -> int:
        return len(self.level_names)

    def level_index(self, label) -> int:
        if isinstance(label, int):
            if not 0 <= label < self.num_levels:
                raise BackendError(f"no level {label}")
            return label
        try:
            return self.level_names.index(label)
        except ValueError:
            raise BackendError(
                f"unknown level {label!r}; have {list(self.level_names)}"
            ) from None

    # --- generic helpers built on the primitive ops ----------------------

    def gram_matrix(self, level: int):
        basis = self.basis(level)
        return [
            [self.trace_to_ground(level, self.mul(level, bi, bj)) for bj in basis]
            for bi in basis
        ]

    def dual_bases(self, level) -> DualBasisPair:
        """xs = the fixed basis, ys with eps(x_i y_j) = delta_ij.

        Deterministic (Gaussian elimination on the fixed basis); cached,
        since backends are immutable.
        """
        level = self.level_index(level)
        cache = self.__dict__.setdefault("_dual_cache", {})
        if level in cache:
            return cache[level]
        pair = self._compute_dual_bases(level)
        cache[level] = pair
        return pair

    def _compute_dual_bases(self, level: int) -> DualBasisPair:
        basis = self.basis(level)
        gram = self.gram_matrix(level)
        try:
            inv = mat_inverse(self.ground, gram)
        except ValueError:
            raise BackendError(f"degenerate trace pairing at level {level}") from None
        ys = tuple(self._from_coordinates(level, row) for row in inv)
        return DualBasisPair(tuple(basis), ys)

    def handle_element(self, level):
        """h = sum_i x_i y_i; independent of the chosen dual pair, so cached
        per level like dual_bases."""
        level = self.level_index(level)
        cache = self.__dict__.setdefault("_handle_cache", {})
        if level in cache:
            return cache[level]
        pair = self.dual_bases(level)
        acc = self.zero(level)
        for x, y in zip(pair.xs, pair.ys):
            acc = self.add(level, acc, self.mul(level, x, y))
        cache[level] = acc
        return acc

    def randomized_dual_pair(self, level, rng) -> DualBasisPair:
        """A different valid dual pair: x' = M x, y' = (M^-1)^T y."""
        level = self.level_index(level)
        pair = self.dual_bases(level)
        n = len(pair.xs)
        dom = self.ground
        while True:
            M = [[self._random_scalar(rng) for _ in range(n)] for _ in range(n)]
            try:
                Minv = mat_inverse(dom, M)
            except ValueError:
                continue
            break
        # pair.xs is the basis, so row i of M is the coordinates of x'_i
        xs = tuple(self._from_coordinates(level, row) for row in M)
        ys = []
        for i in range(n):
            ay = self.zero(level)
            for j in range(n):
                # (M^-1)^T row i = column i of M^-1
                ay = self.add(
                    level, ay, self.scalar_mul(level, Minv[j][i], pair.ys[j])
                )
            ys.append(ay)
        return DualBasisPair(xs, tuple(ys))

    def _random_scalar(self, rng):
        if self.ground.char == 0:
            return Fraction(rng.randint(-5, 5))
        if isinstance(self.ground, ExtField):
            return tuple(
                rng.randrange(self.ground.char) for _ in range(self.ground.degree)
            )
        return rng.randrange(self.ground.char)

    def random_element(self, level, rng):
        level = self.level_index(level)
        return self._from_coordinates(
            level, [self._random_scalar(rng) for _ in range(self.dim(level))])

    def validate_automorphism(self, sigma: Automorphism) -> None:
        """Ring automorphism + trace compatibility, checked exhaustively."""
        level = sigma.level
        basis = self.basis(level)
        imgs = [sigma(b) for b in basis]
        # sigma(1) = 1
        if sigma(self.one(level)) != self.one(level):
            raise BackendError("automorphism does not fix the unit")
        # multiplicativity on basis products
        for i, bi in enumerate(basis):
            for j, bj in enumerate(basis):
                lhs = sigma(self.mul(level, bi, bj))
                rhs = self.mul(level, imgs[i], imgs[j])
                if lhs != rhs:
                    raise BackendError("automorphism is not multiplicative")
        # trace compatibility eps(sigma(a)) = eps(a)
        for b, im in zip(basis, imgs):
            if self.trace_to_ground(level, im) != self.trace_to_ground(level, b):
                raise BackendError("automorphism does not preserve the trace")
        # bijectivity
        try:
            mat_inverse(self.prime_field, sigma.action)
        except ValueError:
            raise BackendError("automorphism matrix is singular") from None

    def identity_automorphism(self, level) -> Automorphism:
        level = self.level_index(level)
        one = self.one(level)
        if not isinstance(one, tuple):
            raise BackendError(f"level {self.level_names[level]!r} of the {self.kind} "
                               "backend has scalar elements, not coefficient tuples, "
                               "so it has no automorphism matrix")
        return Automorphism(self, level, _identity_matrix(self.prime_field, len(one)))

    # --- Galois layer, written once over the hooks below ------------------

    @property
    def top(self) -> int:
        return self.num_levels - 1

    def embeddings(self, level) -> list:
        """All ground-fixing embeddings of the level into the splitting field.

        Embedding k sends a to its prime-field coefficients evaluated at
        embedding_roots(level)[k].
        """
        level = self.level_index(level)
        omega = self.splitting_field()
        return [
            lambda a, lam=lam: _horner(omega, self.prime_coeffs(level, a), lam)
            for lam in self.embedding_roots(level)
        ]

    def automorphism_embedding_action(self, sigma: Automorphism) -> list[int]:
        """Permutation k -> k' with phi_{k'} = phi_k o sigma."""
        roots = self.embedding_roots(sigma.level)
        image = sigma(self.generator(sigma.level))
        return [roots.index(phi(image)) for phi in self.embeddings(sigma.level)]

    def minpoly_over_ground_in_top(self, level) -> UniPoly:
        """Minimal polynomial of the level generator over the ground field,
        with coefficients in the splitting field: prod_k (x - roots[k])."""
        omega = self.splitting_field()
        poly = UniPoly.one(omega)
        for lam in self.embedding_roots(level):
            poly = poly * UniPoly(omega, [omega.neg(lam), omega.one])
        return poly

    def idempotents(self, level) -> IdempotentIndex:
        level = self.level_index(level)
        omega = self.splitting_field()
        roots = tuple(self.embedding_roots(level))
        return IdempotentIndex(level, omega, self.minpoly_over_ground_in_top(level),
                               roots, tuple(lagrange_basis(omega, roots)))

    # --- the level layer of the field kinds (see the module docstring) ----

    def zero(self, level: int):
        return self.fields[level].zero

    def one(self, level: int):
        return self.fields[level].one

    def add(self, level: int, a, b):
        return self.fields[level].add(a, b)

    def mul(self, level: int, a, b):
        return self.fields[level].mul(a, b)

    def basis(self, level: int) -> list:
        # the generator generates the level over the ground
        return _powers(self.fields[level], self.generator(level), self.dim(level))

    def scalar_mul(self, level: int, c, a):
        # a ground scalar acts through the inclusion ground -> level
        return self.fields[level].mul(self._apply("inclusion", 0, level, c), a)

    def _from_coordinates(self, level: int, coords):
        """sum_k coords[k] * basis[k], for ground scalars coords: one product
        with the coordinate matrix of the level."""
        flat = [c for x in coords for c in self.prime_coeffs(0, x)]
        out = _mat_vec(self._map("coordinate", 0, level), flat, self.prime_field.char)
        return self._from_prime_coeffs(level, out)

    def _coordinate_matrix(self, lo: int, level: int) -> tuple:
        """Column (k, j) is e_j * g^k, e_j the prime basis of the ground (lo
        is 0) and g the generator of the level; the identity when the
        ground is the prime field."""
        units = _identity_matrix(self.prime_field, len(self.prime_coeffs(lo, self.one(lo))))
        return _transpose([
            self.prime_coeffs(level, self.scalar_mul(level, self._from_prime_coeffs(lo, e), b))
            for b in self.basis(level) for e in units])

    def _map(self, kind: str, src: int, dst: int) -> tuple:
        """The prime-field matrix of a level map, as a tuple of rows."""
        key = (kind, src, dst)
        if key not in self._maps:
            self._maps[key] = getattr(self, f"_{kind}_matrix")(src, dst)
        return self._maps[key]

    def _apply(self, kind: str, src: int, dst: int, a):
        """The level map's matrix applied to a, an element of level src."""
        out = _mat_vec(self._map(kind, src, dst), self.prime_coeffs(src, a),
                       self.prime_field.char)
        return self._from_prime_coeffs(dst, out)

    def include(self, a, from_level, to_level):
        from_level = self.level_index(from_level)
        to_level = self.level_index(to_level)
        if from_level == to_level:
            return a
        if from_level > to_level:
            raise BackendError("inclusion must go up the tower")
        return self._apply("inclusion", from_level, to_level, a)

    def relative_trace(self, a, from_level, to_level):
        from_level = self.level_index(from_level)
        to_level = self.level_index(to_level)
        if from_level < to_level:
            raise BackendError("relative trace must go down the tower")
        if from_level == to_level:
            return a
        return self._apply("trace", from_level, to_level, a)

    def trace_to_ground(self, level: int, a):
        return self.relative_trace(a, level, 0)

    def _pull_back(self, a, from_level: int, to_level: int):
        """Invert the inclusion; ValueError if a is not in its image."""
        coeffs = solve(self.prime_field, self._map("inclusion", to_level, from_level),
                       self.prime_coeffs(from_level, a))
        return self._from_prime_coeffs(to_level, tuple(coeffs))

    def prime_coeffs(self, level: int, a):
        """a's coefficient tuple over prime_field."""
        return a

    def _from_prime_coeffs(self, level: int, coeffs):
        """The element of the level with these prime-field coefficients."""
        return coeffs

    # --- things every kind provides ----------------------------------------

    def dim(self, level: int) -> int:
        raise NotImplementedError

    def parse_element(self, level, text: str):
        raise NotImplementedError

    # Galois hooks: field backends also supply generator(level)

    def splitting_field(self) -> ExtField:
        raise BackendError(f"{self.kind} backend has no splitting field")

    def embedding_roots(self, level) -> list:
        raise BackendError(f"{self.kind} backend has no embedding enumeration")


# ---------------------------------------------------------------------------
# Finite field towers


class FiniteFieldTower(FrobeniusBackend):
    """GF(p^d0) < GF(p^d1) < ... with the canonical field traces.

    An element of level i is its tuple of d_i prime-field coefficients in
    the power basis of the level generator g_i.  Every map between levels
    is GF(p)-linear on these tuples, so each is one matrix over GF(p),
    kept as a tuple of rows in `_maps` and built on first use:

      ("inclusion", lo, hi)  column k is the image of g_lo^k in level hi.
                             The step lo -> lo+1 sends g_lo to the smallest
                             root of lo's modulus in the next level; a
                             longer inclusion is the product of its steps,
                             so inclusions compose.
      ("trace", hi, lo)      column k is sum_{s<r} (g_hi^k)^(q_lo^s), r the
                             degree of hi over lo, pulled back to level lo.
      ("frobenius", i, e)    column k is (g_i^k)^(q0^e).
      ("coordinate", 0, i)   column (k, j) is e_j g_i^k, e_j the prime
                             basis of the ground.

    The level layer of FrobeniusBackend applies them mod p; a trace matrix
    is built by pulling the Frobenius sums back through _pull_back.
    """

    kind = "finite"

    def __init__(self, p: int, degrees: Sequence[int], names: Sequence[str] | None = None):
        degrees = list(degrees)
        if not degrees:
            raise BackendError("tower needs at least one degree")
        for a, b in zip(degrees, degrees[1:]):
            if b % a != 0:
                raise BackendError(f"tower degrees must divide each other: {a} | {b} fails")
        self.p = p
        self.degrees = tuple(degrees)
        self.fields = [GF(p, d) for d in degrees]
        self.ground = self.fields[0]
        self.prime_field = zmod(p)
        if names is None:
            if len(degrees) == 2:
                names = ("k", "F")
            elif len(degrees) == 3:
                names = ("k", "F", "K")
            else:
                names = tuple(f"L{i}" for i in range(len(degrees)))
        if len(names) != len(degrees):
            raise BackendError("one name per tower level required")
        self.level_names = tuple(names)
        self._maps: dict[tuple[str, int, int], tuple] = {}

    def field(self, level: int) -> ExtField:
        return self.fields[level]

    def dim(self, level: int) -> int:
        return self.degrees[level] // self.degrees[0]

    # --- level map matrices ----------------------------------------------

    def _inclusion_matrix(self, lo: int, hi: int) -> tuple:
        if lo == hi:
            return _identity_matrix(self.prime_field, self.degrees[lo])
        # the step hi-1 -> hi, sending g_(hi-1) to its smallest root, after
        # the inclusion lo -> hi-1
        fld = self.fields[hi]
        root = roots_in_extension(self.fields[hi - 1].modulus, fld.degree)[0]
        step = _transpose(_powers(fld, root, self.degrees[hi - 1]))
        below = self._map("inclusion", lo, hi - 1)
        return _transpose([_mat_vec(step, col, self.p) for col in zip(*below)])

    def _trace_matrix(self, hi: int, lo: int) -> tuple:
        fld = self.fields[hi]
        q = self.p ** self.degrees[lo]
        cols = []
        for k in range(self.degrees[hi]):
            cur = acc = fld.from_coeffs([0] * k + [1])
            for _ in range(self.degrees[hi] // self.degrees[lo] - 1):
                cur = fld.power(cur, q)
                acc = fld.add(acc, cur)
            cols.append(self._pull_back(acc, hi, lo))
        return _transpose(cols)

    def _frobenius_matrix(self, level: int, e: int) -> tuple:
        fld = self.fields[level]
        q = self.p ** (self.degrees[0] * e)
        return _transpose(_powers(fld, fld.power(fld.gen(), q), self.degrees[level]))

    # --- automorphisms ----------------------------------------------------

    def frobenius_automorphism(self, level, power: int = 1) -> Automorphism:
        """a -> a^(q0^power), q0 = |ground|."""
        level = self.level_index(level)
        return Automorphism(self, level,
                            self._map("frobenius", level, power % self.dim(level)))

    # --- Galois hooks ----------------------------------------------------

    def splitting_field(self) -> ExtField:
        return self.fields[self.top]

    def generator(self, level: int):
        return self.fields[level].gen()

    def embedding_roots(self, level) -> list:
        """G^(q0^s) for s < dim(level), G the level generator in the top field."""
        level = self.level_index(level)
        top_field = self.fields[self.top]
        q0 = self.p ** self.degrees[0]
        img = self.include(self.generator(level), level, self.top)
        return [top_field.power(img, q0**s) for s in range(self.dim(level))]

    # --- parsing / rendering ----------------------------------------------

    def parse_element(self, level, text: str):
        level = self.level_index(level)
        fld = self.fields[level]
        poly = parse_unipoly(text, fld)
        return poly.eval(fld.gen())



# ---------------------------------------------------------------------------
# Rational number fields


class RationalNumberField(FrobeniusBackend):
    """QQ < QQ[x]/(f), f monic over QQ, with the trace of QQ[x]/(f) over QQ.

    Level 0 keeps Fraction elements and level 1 tuples of deg f Fractions.
    Its level maps are one column, the image of 1, and one row, tr(x^k),
    built once by companion_trace; the level layer of FrobeniusBackend
    applies them.
    """

    kind = "numberfield"

    def __init__(self, f: UniPoly, roots: Sequence[UniPoly] | None = None):
        if f.dom != QQ_DOMAIN:
            raise BackendError("defining polynomial must be over QQ")
        if not f.is_monic() or f.degree < 1:
            raise BackendError("defining polynomial must be monic of degree >= 1")
        self.f = f
        self.field = NumberField(f)
        self.fields = (QQ_DOMAIN, self.field)
        self.ground = self.prime_field = QQ_DOMAIN
        self._maps: dict[tuple[str, int, int], tuple] = {}
        self.level_names = ("k", "F")
        self.roots = None
        if roots is not None:
            imgs = []
            seen = set()
            for r in roots:
                img = self.field.from_poly(r)
                if not self.field.is_zero(_horner(self.field, self.f.coeffs, img)):
                    raise BackendError(
                        f"supplied root {r.render()} does not satisfy f(r) = 0"
                    )
                if img in seen:
                    raise BackendError("supplied roots are not pairwise distinct")
                seen.add(img)
                imgs.append(img)
            if len(imgs) != f.degree:
                raise BackendError(f"need all {f.degree} roots, got {len(imgs)}")
            if self.field.gen() not in seen:
                raise BackendError(
                    "the root list must contain the generator itself ('x')"
                )
            for r, img in zip(roots, imgs):
                try:
                    mat_inverse(QQ_DOMAIN, self._power_matrix(img))
                except ValueError:
                    raise BackendError(
                        f"supplied root {r.render()} is no field embedding: "
                        "its power matrix is singular") from None
            # the maps x -> r must form a group, so r_i(r_j) is a root again;
            # over a reducible f invertible maps can fail this
            for r in roots:
                for s, img in zip(roots, imgs):
                    if _horner(self.field, r.coeffs or (0,), img) not in seen:
                        raise BackendError(
                            "supplied roots are not closed under composition: "
                            f"{r.render()} at x = {s.render()} is no supplied root")
            self.roots = tuple(imgs)

    def dim(self, level: int) -> int:
        return 1 if level == 0 else self.f.degree

    def _inclusion_matrix(self, lo: int, hi: int) -> tuple:
        """One column, the image of 1; lo is 0, the only level below another."""
        return _transpose([self.prime_coeffs(hi, self.one(hi))])

    def _trace_matrix(self, hi: int, lo: int) -> tuple:
        """One row, tr(x^k) for k < deg f."""
        return (tuple(companion_trace(UniPoly(QQ_DOMAIN, b), self.f)
                      for b in self.basis(hi)),)

    # --- Galois -----------------------------------------------------------

    def _need_roots(self):
        if self.roots is None:
            raise BackendError(
                "Galois operations need splitting data: supply all roots of f"
            )

    def _power_matrix(self, root) -> tuple:
        """The matrix of the map sending the generator to root: column k is
        root^k."""
        return _transpose(_powers(self.field, root, self.f.degree))

    def automorphism_by_root(self, index: int) -> Automorphism:
        """The automorphism sending the generator to roots[index]."""
        self._need_roots()
        sigma = Automorphism(self, 1, self._power_matrix(self.roots[index]))
        self.validate_automorphism(sigma)
        return sigma

    def splitting_field(self) -> ExtField:
        return self.field

    def generator(self, level: int):
        return self.one(0) if level == 0 else self.field.gen()

    def prime_coeffs(self, level: int, a):
        return (a,) if level == 0 else a

    def _from_prime_coeffs(self, level: int, coeffs):
        return coeffs[0] if level == 0 else coeffs

    def embedding_roots(self, level) -> list:
        level = self.level_index(level)
        if level == 0:
            return [self.field.one]
        self._need_roots()
        return list(self.roots)

    def parse_element(self, level, text: str):
        level = self.level_index(level)
        if level == 0:
            return parse_poly(text).constant_value()
        return self.field.from_poly(parse_unipoly(text, QQ_DOMAIN))



def _horner(ext: ExtField, coeffs, at):
    """sum_i coeffs[i] * at^i in ext, for nonempty coefficients in its base field."""
    acc = ext.of(coeffs[-1])
    for c in reversed(coeffs[:-1]):
        acc = ext.add(ext.mul(acc, at), ext.of(c))
    return acc


# ---------------------------------------------------------------------------
# Structure-constant table algebras


class TableAlgebra(FrobeniusBackend):
    kind = "table"

    def __init__(self, basis_names: Sequence[str], mult, trace, unit,
                 ground=None, name: str = "A"):
        self.ground = self.prime_field = ground if ground is not None else QQ_DOMAIN
        dom = self.ground
        n = len(basis_names)
        self.n = n
        self.basis_names = tuple(basis_names)
        self.level_names = (name,)
        self.mult_table = tuple(
            tuple(tuple(dom.of(c) for c in mult[i][j]) for j in range(n))
            for i in range(n)
        )
        self.trace_vec = tuple(dom.of(c) for c in trace)
        self.unit_vec = tuple(dom.of(c) for c in unit)
        self._validate()

    def _validate(self):
        dom = self.ground
        n = self.n
        for i in range(n):
            for j in range(n):
                if self.mult_table[i][j] != self.mult_table[j][i]:
                    raise BackendError("multiplication table is not commutative")
        basis = self.basis(0)
        # unit
        for i, b in enumerate(basis):
            if self.mul(0, self.unit_vec, b) != b:
                raise BackendError("unit coordinates do not give a unit")
        # associativity on all basis triples
        for i in range(n):
            for j in range(n):
                ij = self.mul(0, basis[i], basis[j])
                for k in range(n):
                    jk = self.mul(0, basis[j], basis[k])
                    if self.mul(0, ij, basis[k]) != self.mul(0, basis[i], jk):
                        raise BackendError("multiplication table is not associative")
        # nondegeneracy
        try:
            mat_inverse(dom, self.gram_matrix(0))
        except ValueError:
            raise BackendError("degenerate trace pairing") from None

    def dim(self, level: int) -> int:
        return self.n

    def basis(self, level: int) -> list:
        out = []
        for i in range(self.n):
            v = [self.ground.zero] * self.n
            v[i] = self.ground.one
            out.append(tuple(v))
        return out

    def zero(self, level: int):
        return tuple([self.ground.zero] * self.n)

    def one(self, level: int):
        return self.unit_vec

    def add(self, level: int, a, b):
        dom = self.ground
        return tuple(dom.add(x, y) for x, y in zip(a, b))

    def mul(self, level: int, a, b):
        dom = self.ground
        out = [dom.zero] * self.n
        for i, ca in enumerate(a):
            if dom.is_zero(ca):
                continue
            for j, cb in enumerate(b):
                if dom.is_zero(cb):
                    continue
                c = dom.mul(ca, cb)
                for k, t in enumerate(self.mult_table[i][j]):
                    if not dom.is_zero(t):
                        out[k] = dom.add(out[k], dom.mul(c, t))
        return tuple(out)

    def scalar_mul(self, level: int, c, a):
        dom = self.ground
        c = dom.of(c)
        return tuple(dom.mul(c, x) for x in a)

    def _from_coordinates(self, level: int, coords):
        # the basis is the unit vectors, so an element is its coordinates
        return tuple(coords)

    def trace_to_ground(self, level: int, a):
        dom = self.ground
        acc = dom.zero
        for c, t in zip(a, self.trace_vec):
            acc = dom.add(acc, dom.mul(c, t))
        return acc

    def include(self, a, from_level, to_level):
        raise BackendError(f"{self.kind} backend has no inclusions")

    def relative_trace(self, a, from_level, to_level):
        raise BackendError(f"{self.kind} backend has no relative traces")

    def matrix_automorphism(self, matrix) -> Automorphism:
        dom = self.ground
        if not (isinstance(matrix, (list, tuple)) and len(matrix) == self.n and all(
                isinstance(row, (list, tuple)) and len(row) == self.n for row in matrix)):
            raise BackendError(f"an automorphism matrix must be {self.n} x {self.n}, "
                               f"got {matrix!r}")
        M = tuple(tuple(dom.of(_frac_of(c)) for c in row) for row in matrix)
        sigma = Automorphism(self, 0, M)
        self.validate_automorphism(sigma)
        return sigma

    def parse_element(self, level, text: str):
        """Parse an expression in the basis names (products use the table)."""
        p = parse_poly(text)
        named = {nm: i for i, nm in enumerate(self.basis_names)}
        extra = p.variables() - set(named)
        if extra:
            raise BackendError(f"unknown basis names {sorted(extra)}")
        acc = self.zero(0)
        for mono, coeff in p.terms.items():
            term = self.scalar_mul(0, coeff, self.one(0))
            for var, e in mono:
                bvec = self.basis(0)[named[var]]
                for _ in range(e):
                    term = self.mul(0, term, bvec)
            acc = self.add(0, acc, term)
        return acc

    def render_element(self, level: int, a) -> str:
        dom = self.ground
        parts = []
        for c, nm in zip(a, self.basis_names):
            if dom.is_zero(c):
                continue
            cs = dom.render(c)
            parts.append(nm if cs == "1" else f"{cs}*{nm}")
        return " + ".join(parts) if parts else "0"

    def descriptor(self) -> dict:
        def r(c):
            return str(c)

        return {
            "kind": "table",
            "basis": list(self.basis_names),
            "mult": [[[r(c) for c in self.mult_table[i][j]] for j in range(self.n)]
                     for i in range(self.n)],
            "trace": [r(c) for c in self.trace_vec],
            "unit": [r(c) for c in self.unit_vec],
            "char": self.ground.char,
        }


def _powers(dom, x, n: int) -> list:
    """1, x, ..., x^(n-1) in the scalar domain dom."""
    out = [dom.one]
    for _ in range(n - 1):
        out.append(dom.mul(out[-1], x))
    return out


def _transpose(cols) -> tuple:
    """The rows of the matrix with the given columns."""
    return tuple(zip(*cols))


def _mat_vec(rows, a, p: int) -> tuple:
    """The matrix with the given rows times the column a, mod p unless p = 0."""
    if p:
        return tuple(sum(map(mul, row, a)) % p for row in rows)
    return tuple(sum(map(mul, row, a)) for row in rows)


def _identity_matrix(dom, n: int) -> tuple:
    return tuple(tuple(dom.one if i == j else dom.zero for j in range(n))
                 for i in range(n))


# ---------------------------------------------------------------------------
# Descriptors


def _frac_of(v) -> Fraction:
    """An exact table number: an int, a Fraction or a rational string "p/q".

    JSON floats and bools are refused: a binary fraction such as 0.1 is
    not the number the document wrote.
    """
    if isinstance(v, bool) or not isinstance(v, (int, Fraction, str)):
        raise BackendError(f"table numbers must be ints or 'p/q' strings, got {v!r}")
    try:
        return Fraction(v)
    except (ValueError, ZeroDivisionError):
        raise BackendError(f"not a rational number: {v!r}") from None


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_list(v, ok=lambda x: True, length=None) -> bool:
    return (isinstance(v, list) and (length is None or len(v) == length)
            and all(ok(x) for x in v))


def _is_str(v) -> bool:
    return isinstance(v, str)


def make_backend(descriptor) -> FrobeniusBackend:
    """Build and validate a backend from a JSON-style descriptor.

    {"kind": "finite", "p": 3, "degrees": [1, 2, 4]}
    {"kind": "numberfield", "f": "x^2-2", "roots": ["x", "-x"]}
    {"kind": "table", "basis": [...], "mult": [...], "trace": [...],
     "unit": [...], "char": 0}
    """
    if isinstance(descriptor, str):
        descriptor = json.loads(descriptor)
    if not isinstance(descriptor, dict):
        raise BackendError(f"a backend must be a JSON object, got {descriptor!r}")
    kind = descriptor.get("kind")

    def need(key, ok, what, default=None):
        value = descriptor.get(key, default)
        if not ok(value):
            raise BackendError(f"{kind} backend: {key!r} must be {what}, got {value!r}")
        return value

    if kind == "finite":
        return FiniteFieldTower(
            need("p", _is_int, "a prime"),
            need("degrees", lambda v: _is_list(v, lambda d: _is_int(d) and d > 0),
                 "a list of positive ints"),
            names=need("names", lambda v: v is None or _is_list(v, _is_str),
                       "a list of strings"))
    if kind == "numberfield":
        f = parse_unipoly(need("f", _is_str, "a polynomial string"), QQ_DOMAIN)
        roots = need("roots", lambda v: v is None or _is_list(v, _is_str),
                     "a list of polynomial strings")
        if roots is not None:
            roots = [parse_unipoly(r, QQ_DOMAIN) for r in roots]
        return RationalNumberField(f, roots)
    if kind == "table":
        char = need("char", lambda v: _is_int(v) and v >= 0, "0 or a prime", 0)
        ground = QQ_DOMAIN if char == 0 else zmod(char)
        basis = need("basis", lambda v: _is_list(v, _is_str), "a list of names")
        n = len(basis)

        def vector(v):
            return _is_list(v, length=n)

        mult = need("mult", lambda v: _is_list(v, lambda row: _is_list(row, vector, n), n),
                    f"{n} x {n} cells of {n} numbers")
        mult = [[[_frac_of(c) for c in cell] for cell in row] for row in mult]
        trace = [_frac_of(c) for c in need("trace", vector, f"{n} numbers")]
        unit = [_frac_of(c) for c in need("unit", vector, f"{n} numbers")]
        return TableAlgebra(basis, mult, trace, unit, ground=ground)
    raise BackendError(f"unknown backend kind {kind!r}")


def nilpotent_square_algebra(ground=None) -> TableAlgebra:
    """The four-dimensional algebra k[a,b]/(a^2, b^2) with eps(ab) = 1.

    Basis (1, a, b, ab); the only nonzero trace value is on ab.
    """
    n = 4
    zero4 = [0, 0, 0, 0]

    def e(i):
        v = list(zero4)
        v[i] = 1
        return v

    mult = [[zero4 for _ in range(n)] for _ in range(n)]
    mult = [
        [e(0), e(1), e(2), e(3)],
        [e(1), zero4, e(3), zero4],
        [e(2), e(3), zero4, zero4],
        [e(3), zero4, zero4, zero4],
    ]
    return TableAlgebra(
        ("one", "a", "b", "ab"),
        mult,
        trace=[0, 0, 0, 1],
        unit=[1, 0, 0, 0],
        ground=ground,
    )


def scaling_automorphism(alg: TableAlgebra, lam) -> Automorphism:
    """sigma(a) = lam*a, sigma(b) = b/lam on k[a,b]/(a^2,b^2)."""
    dom = alg.ground
    lam = dom.of(lam)
    lam_inv = dom.inv(lam)
    M = [
        [dom.one, dom.zero, dom.zero, dom.zero],
        [dom.zero, lam, dom.zero, dom.zero],
        [dom.zero, dom.zero, lam_inv, dom.zero],
        [dom.zero, dom.zero, dom.zero, dom.one],
    ]
    return alg.matrix_automorphism(M)
