"""Frobenius-algebra backends: field towers, number fields, table algebras.

A backend packages a commutative Frobenius algebra (or a tower of them)
over a ground field, together with everything the surface evaluators
need: traces to the ground field, dual bases, automorphism application,
inclusions and relative traces between tower levels, and minimal
idempotents over a splitting level.

Three kinds:

  FiniteFieldTower      GF(p^d0) < GF(p^d1) < ... with canonical traces;
                        fully automatic (moduli, embeddings, Galois action
                        all computed).
  RationalNumberField   QQ < QQ[x]/(f); Galois operations need the caller
                        to supply all roots of f as polynomials in the
                        generator (exact factorization over number fields
                        is deliberately out of scope).
  TableAlgebra          an explicit structure-constant algebra with a
                        trace vector; the ground field is QQ or Z/p.

All backends are validated at construction and immutable afterwards;
every operation is a pure function.

Elements are backend-native values: tuples of ground scalars.  Level 0 of
a tower is the ground field itself, so facets labelled by the ground
field work uniformly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .exactalg.ffield import ExtField, GF, NumberField, roots_in_extension
from .exactalg.linalg import mat_inverse, solve
from .exactalg.multipoly import parse_poly, parse_unipoly
from .exactalg.scalars import QQ_DOMAIN, zmod
from .exactalg.unipoly import UniPoly


class BackendError(ValueError):
    """Raised when a backend descriptor violates a construction invariant."""


# ---------------------------------------------------------------------------
# Automorphisms


@dataclass(frozen=True)
class Automorphism:
    """An epsilon-automorphism of one level of a backend.

    action is kind-specific:
      finite tower  -- int e, the map a -> a^(q0^e) with q0 = |ground|
      number field  -- int root index; the generator maps to roots[index]
      table algebra -- tuple-of-tuples matrix over the ground field
    """

    backend: "FrobeniusBackend"
    level: int
    action: object
    name: str = ""

    def __call__(self, a):
        return self.backend.apply_automorphism(self, a)

    def compose(self, other: "Automorphism") -> "Automorphism":
        """self after other: (self * other)(a) = self(other(a))."""
        return self.backend.compose_automorphisms(self, other)

    def inverse(self) -> "Automorphism":
        return self.backend.invert_automorphism(self)

    def is_identity(self) -> bool:
        return self.backend.is_identity_automorphism(self)


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
    """Common interface; concrete kinds fill in the methods they support."""

    kind: str
    ground = None  # scalar domain
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
        ys = []
        for i in range(len(basis)):
            acc = self.zero(level)
            for j, bj in enumerate(basis):
                acc = self.add(level, acc, self.scalar_mul(level, inv[i][j], bj))
            ys.append(acc)
        return DualBasisPair(tuple(basis), tuple(ys))

    def handle_element(self, level):
        """h = sum_i x_i y_i; independent of the chosen dual pair."""
        level = self.level_index(level)
        pair = self.dual_bases(level)
        acc = self.zero(level)
        for x, y in zip(pair.xs, pair.ys):
            acc = self.add(level, acc, self.mul(level, x, y))
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
        xs = []
        ys = []
        for i in range(n):
            ax = self.zero(level)
            ay = self.zero(level)
            for j in range(n):
                ax = self.add(level, ax, self.scalar_mul(level, M[i][j], pair.xs[j]))
                # (M^-1)^T row i = column i of M^-1
                ay = self.add(
                    level, ay, self.scalar_mul(level, Minv[j][i], pair.ys[j])
                )
            xs.append(ax)
            ys.append(ay)
        return DualBasisPair(tuple(xs), tuple(ys))

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
        acc = self.zero(level)
        for b in self.basis(level):
            acc = self.add(level, acc, self.scalar_mul(level, self._random_scalar(rng), b))
        return acc

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
        # bijectivity: images must span
        mat = [self.coords(level, im) for im in imgs]
        try:
            mat_inverse(self.ground, mat)
        except ValueError:
            raise BackendError("automorphism matrix is singular") from None

    # --- things subclasses must provide -----------------------------------

    def dim(self, level: int) -> int:
        raise NotImplementedError

    def basis(self, level: int) -> list:
        raise NotImplementedError

    def zero(self, level: int):
        raise NotImplementedError

    def one(self, level: int):
        raise NotImplementedError

    def add(self, level: int, a, b):
        raise NotImplementedError

    def mul(self, level: int, a, b):
        raise NotImplementedError

    def scalar_mul(self, level: int, c, a):
        raise NotImplementedError

    def coords(self, level: int, a) -> list:
        raise NotImplementedError

    def trace_to_ground(self, level: int, a):
        raise NotImplementedError

    def apply_automorphism(self, sigma: Automorphism, a):
        raise NotImplementedError

    def parse_element(self, level, text: str):
        raise NotImplementedError

    def render_element(self, level: int, a) -> str:
        raise NotImplementedError

    # optional capabilities

    def include(self, a, from_level: int, to_level: int):
        raise BackendError(f"{self.kind} backend has no inclusions")

    def relative_trace(self, a, from_level, to_level):
        raise BackendError(f"{self.kind} backend has no relative traces")

    def idempotents(self, level) -> IdempotentIndex:
        raise BackendError(f"{self.kind} backend has no idempotent index")

    def embeddings(self, level: int):
        raise BackendError(f"{self.kind} backend has no embedding enumeration")


# ---------------------------------------------------------------------------
# Finite field towers


class FiniteFieldTower(FrobeniusBackend):
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
        # consecutive embeddings: image of the lower generator in the upper field
        self._gen_images: list = []  # _gen_images[i]: generator of level i inside level i+1
        for i in range(len(degrees) - 1):
            lo, hi = self.fields[i], self.fields[i + 1]
            img = self._embed_generator(lo, hi)
            self._gen_images.append(img)
        # cache of (from,to) -> generator image of `from` inside `to`
        self._img_cache: dict[tuple[int, int], object] = {}
        # pull-back solvers: embedding matrices for consecutive pairs
        self._emb_matrix: dict[tuple[int, int], list] = {}

    @staticmethod
    def _embed_generator(lo: ExtField, hi: ExtField):
        """Deterministic root of lo's modulus inside hi: the smallest one."""
        roots = roots_in_extension(lo.modulus, hi.degree)
        if not roots:
            raise BackendError("no root found for tower embedding")
        return roots[0]

    # --- level plumbing --------------------------------------------------

    def field(self, level: int) -> ExtField:
        return self.fields[level]

    def dim(self, level: int) -> int:
        return self.degrees[level] // self.degrees[0]

    def basis(self, level: int) -> list:
        # g generates the level over the prime field, hence over the ground
        fld = self.fields[level]
        g = fld.gen()
        out = [fld.one]
        for _ in range(self.dim(level) - 1):
            out.append(fld.mul(out[-1], g))
        return out

    def zero(self, level: int):
        return self.fields[level].zero

    def one(self, level: int):
        return self.fields[level].one

    def add(self, level: int, a, b):
        return self.fields[level].add(a, b)

    def sub(self, level: int, a, b):
        return self.fields[level].sub(a, b)

    def mul(self, level: int, a, b):
        return self.fields[level].mul(a, b)

    def scalar_mul(self, level: int, c, a):
        # ground scalar c acts through the inclusion ground -> level
        return self.fields[level].mul(self.include(c, 0, level), a)

    def _prime_dom(self):
        return zmod(self.p)

    def coords(self, level: int, a) -> list:
        """Ground-field coordinates of a in the power basis of the level.

        Solved as a prime-field linear system in the d0 coefficients of
        each ground coordinate; the result is a list of ground elements.
        """
        basis = self.basis(level)
        fld = self.fields[level]
        d0 = self.degrees[0]
        di = self.degrees[level]
        pdom = self._prime_dom()
        gbasis = self.ground_basis_in(level)
        cols = []
        for bj in basis:
            for gb in gbasis:
                cols.append(list(fld.mul(bj, gb)))
        mat = [[cols[c][r] for c in range(len(cols))] for r in range(di)]
        flat = solve(pdom, mat, list(a))
        out = []
        for j in range(len(basis)):
            out.append(tuple(flat[j * d0 : (j + 1) * d0]))
        return out

    def ground_basis_in(self, level: int) -> list:
        """Images of the ground power basis inside the level."""
        img = self.gen_image(0, level)
        fld = self.fields[level]
        out = [fld.one]
        for _ in range(self.degrees[0] - 1):
            out.append(fld.mul(out[-1], img))
        return out

    def gen_image(self, from_level: int, to_level: int):
        """Image of from_level's generator inside to_level (composite embedding)."""
        if from_level == to_level:
            return self.fields[from_level].gen()
        key = (from_level, to_level)
        if key not in self._img_cache:
            if to_level == from_level + 1:
                img = self._gen_images[from_level]
            else:
                # embed into the next level, then push that image up
                mid = from_level + 1
                img_mid = self._gen_images[from_level]
                img = self._apply_embedding(mid, to_level, img_mid)
            self._img_cache[key] = img
        return self._img_cache[key]

    def _apply_embedding(self, from_level: int, to_level: int, a):
        """Map a in from_level to to_level by evaluating its polynomial."""
        fld_to = self.fields[to_level]
        img = self.gen_image(from_level, to_level)
        acc = fld_to.zero
        power = fld_to.one
        for c in a:
            acc = fld_to.add(acc, fld_to.mul(fld_to.of(c), power))
            power = fld_to.mul(power, img)
        return acc

    def include(self, a, from_level, to_level):
        from_level = self.level_index(from_level)
        to_level = self.level_index(to_level)
        if from_level == to_level:
            return a
        if from_level > to_level:
            raise BackendError("inclusion must go up the tower")
        return self._apply_embedding(from_level, to_level, a)

    def relative_trace(self, a, from_level, to_level):
        """Canonical field trace: sum of the Frobenius-power images."""
        from_level = self.level_index(from_level)
        to_level = self.level_index(to_level)
        if from_level < to_level:
            raise BackendError("relative trace must go down the tower")
        fld = self.fields[from_level]
        q = self.p ** self.degrees[to_level]
        r = self.degrees[from_level] // self.degrees[to_level]
        acc = fld.zero
        cur = a
        for _ in range(r):
            acc = fld.add(acc, cur)
            cur = fld.power(cur, q)
        return self._pull_back(acc, from_level, to_level)

    def _pull_back(self, a, from_level: int, to_level: int):
        """Invert the embedding on an element known to lie in the image."""
        if from_level == to_level:
            return a
        pdom = self._prime_dom()
        rows, inv, full = self._pull_back_solver(from_level, to_level)
        picked = [a[r] for r in rows]
        sol = tuple(
            _sum(pdom, (pdom.mul(inv[i][j], picked[j]) for j in range(len(rows))))
            for i in range(len(rows))
        )
        # confirm the element really lies in the image
        rebuilt = [
            _sum(pdom, (pdom.mul(full[r][i], sol[i]) for i in range(len(sol))))
            for r in range(self.degrees[from_level])
        ]
        if list(a) != rebuilt:
            raise ValueError("element does not lie in the subfield image")
        return sol

    def _pull_back_solver(self, from_level: int, to_level: int):
        key = (from_level, to_level)
        cache = self.__dict__.setdefault("_pull_cache", {})
        if key in cache:
            return cache[key]
        pdom = self._prime_dom()
        img = self.gen_image(to_level, from_level)
        cols = []
        power = self.fields[from_level].one
        for _ in range(self.degrees[to_level]):
            cols.append(list(power))
            power = self.fields[from_level].mul(power, img)
        d_from = self.degrees[from_level]
        d_to = self.degrees[to_level]
        full = [[cols[c][r] for c in range(d_to)] for r in range(d_from)]
        # pick d_to rows making a square invertible block
        rows = []
        inv = None
        from itertools import combinations

        for rset in combinations(range(d_from), d_to):
            block = [full[r] for r in rset]
            try:
                inv = mat_inverse(pdom, block)
                rows = list(rset)
                break
            except ValueError:
                continue
        if inv is None:
            raise ValueError("embedding matrix has no invertible block")
        cache[key] = (rows, inv, full)
        return cache[key]

    def trace_to_ground(self, level: int, a):
        return self.relative_trace(a, level, 0)

    # --- automorphisms ----------------------------------------------------

    def frobenius_automorphism(self, level, power: int = 1) -> Automorphism:
        level = self.level_index(level)
        r = self.dim(level)
        e = power % r if r else 0
        return Automorphism(self, level, e, name=f"frob^{power}")

    def identity_automorphism(self, level) -> Automorphism:
        return self.frobenius_automorphism(level, 0)

    def apply_automorphism(self, sigma: Automorphism, a):
        fld = self.fields[sigma.level]
        q0 = self.p ** self.degrees[0]
        return fld.power(a, q0 ** sigma.action)

    def compose_automorphisms(self, s1: Automorphism, s2: Automorphism) -> Automorphism:
        if s1.level != s2.level:
            raise BackendError("cannot compose automorphisms of different levels")
        r = self.dim(s1.level)
        return Automorphism(self, s1.level, (s1.action + s2.action) % r,
                            name=f"frob^{(s1.action + s2.action) % r}")

    def invert_automorphism(self, sigma: Automorphism) -> Automorphism:
        r = self.dim(sigma.level)
        return Automorphism(self, sigma.level, (-sigma.action) % r,
                            name=f"frob^{(-sigma.action) % r}")

    def is_identity_automorphism(self, sigma: Automorphism) -> bool:
        return sigma.action % max(self.dim(sigma.level), 1) == 0

    # --- Galois / idempotent data ----------------------------------------

    @property
    def top(self) -> int:
        return self.num_levels - 1

    def embeddings(self, level: int):
        """All ground-fixing embeddings of the level into the top field.

        Returned as callables; embedding s sends a to emb(a)^(q0^s).
        """
        level = self.level_index(level)
        top_field = self.fields[self.top]
        q0 = self.p ** self.degrees[0]
        count = self.dim(level)

        def make(s):
            def phi(a):
                return top_field.power(self._apply_embedding(level, self.top, a), q0**s)

            return phi

        return [make(s) for s in range(count)]

    def embedding_roots(self, level: int) -> list:
        """Images of the level generator under each embedding (the root index)."""
        level = self.level_index(level)
        g = self.fields[level].gen()
        return [phi(g) for phi in self.embeddings(level)]

    def automorphism_embedding_action(self, sigma: Automorphism) -> list[int]:
        """Permutation s -> s' with phi_{s'} = phi_s o sigma."""
        level = sigma.level
        roots = self.embedding_roots(level)
        g = self.fields[level].gen()
        out = []
        for s, phi in enumerate(self.embeddings(level)):
            target = phi(sigma(g))
            out.append(roots.index(target))
        return out

    def minpoly_over_ground_in_top(self, level: int) -> UniPoly:
        """Minimal polynomial of the level generator over the ground field,
        with coefficients mapped into the top field."""
        omega = self.fields[self.top]
        roots = self.embedding_roots(level)
        poly = UniPoly.one(omega)
        for lam in roots:
            poly = poly * UniPoly(omega, [omega.neg(lam), omega.one])
        return poly

    def idempotents(self, level) -> IdempotentIndex:
        level = self.level_index(level)
        omega = self.fields[self.top]
        roots = self.embedding_roots(level)
        minpoly = self.minpoly_over_ground_in_top(level)
        polys = []
        for k, lam_k in enumerate(roots):
            num = UniPoly.one(omega)
            den = omega.one
            for j, lam_j in enumerate(roots):
                if j == k:
                    continue
                num = num * UniPoly(omega, [omega.neg(lam_j), omega.one])
                den = omega.mul(den, omega.sub(lam_k, lam_j))
            polys.append(num.scale(omega.inv(den)))
        return IdempotentIndex(level, omega, minpoly, tuple(roots), tuple(polys))

    # --- parsing / rendering ----------------------------------------------

    def parse_element(self, level, text: str):
        level = self.level_index(level)
        fld = self.fields[level]
        poly = parse_unipoly(text, fld, var="x")
        return poly.eval(fld.gen())

    def render_element(self, level: int, a) -> str:
        return UniPoly(zmod(self.p), a).render("x")

    def descriptor(self) -> dict:
        return {"kind": "finite", "p": self.p, "degrees": list(self.degrees)}


# ---------------------------------------------------------------------------
# Rational number fields


class RationalNumberField(FrobeniusBackend):
    kind = "numberfield"

    def __init__(self, f: UniPoly, roots: Sequence[UniPoly] | None = None,
                 names: Sequence[str] = ("k", "F")):
        if f.dom != QQ_DOMAIN:
            raise BackendError("defining polynomial must be over QQ")
        if not f.is_monic() or f.degree < 1:
            raise BackendError("defining polynomial must be monic of degree >= 1")
        self.f = f
        self.field = NumberField(f)
        self.ground = QQ_DOMAIN
        self.level_names = tuple(names)
        self.roots = None
        if roots is not None:
            imgs = []
            seen = set()
            for r in roots:
                img = self._elem_from_poly(r)
                check = _eval_poly_in_ext(self.f, self.field, img)
                if not self.field.is_zero(check):
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
            self.roots = tuple(imgs)

    def _elem_from_poly(self, p: UniPoly):
        return _eval_poly_in_ext(p, self.field, self.field.gen())

    def _poly_of(self, a) -> UniPoly:
        return UniPoly(QQ_DOMAIN, a)

    def dim(self, level: int) -> int:
        return 1 if level == 0 else self.f.degree

    def basis(self, level: int) -> list:
        if level == 0:
            return [Fraction(1)]
        g = self.field.gen()
        out = [self.field.one]
        for _ in range(self.f.degree - 1):
            out.append(self.field.mul(out[-1], g))
        return out

    def zero(self, level: int):
        return Fraction(0) if level == 0 else self.field.zero

    def one(self, level: int):
        return Fraction(1) if level == 0 else self.field.one

    def add(self, level: int, a, b):
        return a + b if level == 0 else self.field.add(a, b)

    def sub(self, level: int, a, b):
        return a - b if level == 0 else self.field.sub(a, b)

    def mul(self, level: int, a, b):
        return a * b if level == 0 else self.field.mul(a, b)

    def scalar_mul(self, level: int, c, a):
        if level == 0:
            return Fraction(c) * a
        return self.field.mul(self.field.of(c), a)

    def coords(self, level: int, a) -> list:
        return [a] if level == 0 else list(a)

    def trace_to_ground(self, level: int, a):
        if level == 0:
            return a
        from .exactalg.unipoly import companion_trace

        return companion_trace(self._poly_of(a), self.f)

    def include(self, a, from_level, to_level):
        from_level = self.level_index(from_level)
        to_level = self.level_index(to_level)
        if from_level == to_level:
            return a
        if (from_level, to_level) != (0, 1):
            raise BackendError("inclusion must go up")
        return self.field.of(a)

    def relative_trace(self, a, from_level, to_level):
        from_level = self.level_index(from_level)
        to_level = self.level_index(to_level)
        if from_level == to_level:
            return a
        if (from_level, to_level) != (1, 0):
            raise BackendError("relative trace must go down")
        return self.trace_to_ground(1, a)

    # --- Galois -----------------------------------------------------------

    def _need_roots(self):
        if self.roots is None:
            raise BackendError(
                "Galois operations need splitting data: supply all roots of f"
            )

    def automorphism_by_root(self, index: int) -> Automorphism:
        self._need_roots()
        sigma = Automorphism(self, 1, index, name=f"root[{index}]")
        self.validate_automorphism(sigma)
        return sigma

    def identity_automorphism(self, level=1) -> Automorphism:
        self._need_roots()
        g = self.field.gen()
        idx = self.roots.index(g)
        return Automorphism(self, 1, idx, name="id")

    def apply_automorphism(self, sigma: Automorphism, a):
        self._need_roots()
        img = self.roots[sigma.action]
        return _eval_poly_in_ext(self._poly_of(a), self.field, img)

    def compose_automorphisms(self, s1: Automorphism, s2: Automorphism) -> Automorphism:
        g = self.field.gen()
        img = self.apply_automorphism(s1, self.apply_automorphism(s2, g))
        return Automorphism(self, 1, self.roots.index(img),
                            name=f"{s1.name}*{s2.name}")

    def invert_automorphism(self, sigma: Automorphism) -> Automorphism:
        ident = self.identity_automorphism()
        # finite search in the root permutations
        for idx in range(len(self.roots)):
            cand = Automorphism(self, 1, idx)
            if self.compose_automorphisms(sigma, cand).action == ident.action:
                return cand
        raise BackendError("automorphism has no inverse among supplied roots")

    def is_identity_automorphism(self, sigma: Automorphism) -> bool:
        return self.roots[sigma.action] == self.field.gen()

    def embeddings(self, level: int):
        level = self.level_index(level)
        if level == 0:
            return [lambda a: self.field.of(a)]
        self._need_roots()

        def make(img):
            def phi(a):
                return _eval_poly_in_ext(self._poly_of(a), self.field, img)

            return phi

        return [make(img) for img in self.roots]

    def embedding_roots(self, level: int) -> list:
        level = self.level_index(level)
        if level == 0:
            return [self.field.one]
        self._need_roots()
        return list(self.roots)

    def automorphism_embedding_action(self, sigma: Automorphism) -> list[int]:
        g = self.field.gen()
        roots = list(self.roots)
        out = []
        for phi in self.embeddings(1):
            out.append(roots.index(phi(sigma(g))))
        return out

    def minpoly_over_ground_in_top(self, level: int) -> UniPoly:
        return UniPoly(self.field, [self.field.of(c) for c in self.f.coeffs])

    def idempotents(self, level=1) -> IdempotentIndex:
        level = self.level_index(level)
        if level == 0:
            raise BackendError("idempotents are indexed at extension levels")
        self._need_roots()
        omega = self.field
        minpoly = self.minpoly_over_ground_in_top(1)
        polys = []
        for k, lam_k in enumerate(self.roots):
            num = UniPoly.one(omega)
            den = omega.one
            for j, lam_j in enumerate(self.roots):
                if j == k:
                    continue
                num = num * UniPoly(omega, [omega.neg(lam_j), omega.one])
                den = omega.mul(den, omega.sub(lam_k, lam_j))
            polys.append(num.scale(omega.inv(den)))
        return IdempotentIndex(1, omega, minpoly, tuple(self.roots), tuple(polys))

    def parse_element(self, level, text: str):
        level = self.level_index(level)
        if level == 0:
            return parse_poly(text).constant_value()
        poly = parse_unipoly(text, QQ_DOMAIN, var="x")
        return _eval_poly_in_ext(poly, self.field, self.field.gen())

    def render_element(self, level: int, a) -> str:
        if level == 0:
            return str(a)
        return UniPoly(QQ_DOMAIN, a).render("x")

    def descriptor(self) -> dict:
        out = {"kind": "numberfield", "f": self.f.render()}
        if self.roots is not None:
            out["roots"] = [UniPoly(QQ_DOMAIN, r).render() for r in self.roots]
        return out


def _eval_poly_in_ext(p: UniPoly, ext: ExtField, at):
    """Evaluate a ground-coefficient polynomial at an extension element."""
    acc = ext.zero
    for c in reversed(p.coeffs):
        acc = ext.add(ext.mul(acc, at), ext.of(c))
    return acc


# ---------------------------------------------------------------------------
# Structure-constant table algebras


class TableAlgebra(FrobeniusBackend):
    kind = "table"

    def __init__(self, basis_names: Sequence[str], mult, trace, unit,
                 ground=None, name: str = "A"):
        self.ground = ground if ground is not None else QQ_DOMAIN
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

    def sub(self, level: int, a, b):
        dom = self.ground
        return tuple(dom.sub(x, y) for x, y in zip(a, b))

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

    def coords(self, level: int, a) -> list:
        return list(a)

    def trace_to_ground(self, level: int, a):
        dom = self.ground
        acc = dom.zero
        for c, t in zip(a, self.trace_vec):
            acc = dom.add(acc, dom.mul(c, t))
        return acc

    def matrix_automorphism(self, matrix, name: str = "sigma") -> Automorphism:
        dom = self.ground
        if not (isinstance(matrix, (list, tuple)) and len(matrix) == self.n and all(
                isinstance(row, (list, tuple)) and len(row) == self.n for row in matrix)):
            raise BackendError(f"an automorphism matrix must be {self.n} x {self.n}, "
                               f"got {matrix!r}")
        M = tuple(tuple(dom.of(_frac_of(c)) for c in row) for row in matrix)
        sigma = Automorphism(self, 0, M, name=name)
        self.validate_automorphism(sigma)
        return sigma

    def identity_automorphism(self, level=0) -> Automorphism:
        M = tuple(
            tuple(self.ground.one if i == j else self.ground.zero for j in range(self.n))
            for i in range(self.n)
        )
        return Automorphism(self, 0, M, name="id")

    def apply_automorphism(self, sigma: Automorphism, a):
        dom = self.ground
        M = sigma.action
        out = [dom.zero] * self.n
        # columns of M are images of basis vectors: sigma(b_j) = sum_i M[i][j] b_i
        for j, c in enumerate(a):
            if dom.is_zero(c):
                continue
            for i in range(self.n):
                out[i] = dom.add(out[i], dom.mul(c, M[i][j]))
        return tuple(out)

    def compose_automorphisms(self, s1: Automorphism, s2: Automorphism) -> Automorphism:
        dom = self.ground
        M1, M2 = s1.action, s2.action
        n = self.n
        M = tuple(
            tuple(
                _sum(dom, (dom.mul(M1[i][k], M2[k][j]) for k in range(n)))
                for j in range(n)
            )
            for i in range(n)
        )
        return Automorphism(self, 0, M, name=f"{s1.name}*{s2.name}")

    def invert_automorphism(self, sigma: Automorphism) -> Automorphism:
        Minv = mat_inverse(self.ground, [list(r) for r in sigma.action])
        return Automorphism(self, 0, tuple(tuple(r) for r in Minv),
                            name=f"{sigma.name}^-1")

    def is_identity_automorphism(self, sigma: Automorphism) -> bool:
        return sigma.action == self.identity_automorphism().action

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


def _sum(dom, items):
    acc = dom.zero
    for x in items:
        acc = dom.add(acc, x)
    return acc


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
    return alg.matrix_automorphism(M, name=f"scale({lam})")
