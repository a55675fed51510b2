"""One-variable Jacobi algebras and the Grothendieck residue trace.

For a monic squarefree f over a field k, the Jacobi algebra is k[x]/(f)
with basis 1, x, ..., x^(n-1).  The residue trace tr_G is defined here by
coefficient extraction: tr_G(p) is the x^(n-1) coefficient of p mod f.
For monic f with simple roots this agrees with the residue sum
sum_i p(L_i) / prod_{j!=i}(L_i - L_j) over the roots L_i, which is kept
as an independent cross-check over finite fields (where roots are
computable).  Coefficient extraction needs no roots and works over any
field, which is why it is the primary definition here.

The field trace and the residue trace differ by multiplication by f':
tr_{F/k}(p) = tr_G(f' * p) whenever gcd(f, f') = 1.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .exactalg.ffield import GF, roots_in_extension
from .exactalg.scalars import Zmod
from .exactalg.unipoly import (UniPoly, companion_trace, lagrange_basis, poly_gcd,
                               poly_mod)
from .fieldext import TableAlgebra


class PotentialError(ValueError):
    pass


@dataclass(frozen=True)
class JacobiAlgebra:
    """k[x]/(f) for monic squarefree f = w'(x)."""

    f: UniPoly

    def __post_init__(self):
        f = self.f
        if not f.is_monic() or f.degree < 1:
            raise PotentialError("derivative of the potential must be monic")
        fp = f.derivative()
        if fp.is_zero():
            raise PotentialError(
                "f' = 0 in this characteristic; the Hessian is degenerate"
            )
        if poly_gcd(f, fp).degree != 0:
            raise PotentialError("f must be squarefree (all roots simple)")

    @property
    def dom(self):
        return self.f.dom

    @property
    def dimension(self) -> int:
        return self.f.degree

    def reduce(self, p: UniPoly) -> UniPoly:
        return poly_mod(p, self.f)


def grothendieck_trace(p: UniPoly, J: JacobiAlgebra):
    """tr_G(p): the x^(n-1) coefficient of p mod f."""
    return J.reduce(p).coeff(J.dimension - 1)


def residue_sum_trace(p: UniPoly, J: JacobiAlgebra, splitting_degree: int):
    """Independent path: sum over roots of p(L)/f'(L), over a finite field.

    Requires all roots of f to lie in GF(p^splitting_degree).  Returns an
    element of the splitting field (which equals the embedded ground value).
    """
    dom = J.dom
    if not isinstance(dom, Zmod):
        raise PotentialError("residue-sum cross-check needs a prime ground field")
    roots = roots_in_extension(J.f, splitting_degree)
    if len(roots) != J.dimension:
        raise PotentialError(
            f"f does not split in GF({dom.p}^{splitting_degree})"
        )
    ext = GF(dom.p, splitting_degree)
    fp = J.f.derivative()
    lift = lambda q: UniPoly(ext, [ext.of(c) for c in q.coeffs])  # noqa: E731
    p_ext, fp_ext = lift(p), lift(fp)
    acc = ext.zero
    for lam in roots:
        acc = ext.add(acc, ext.mul(p_ext.eval(lam), ext.inv(fp_ext.eval(lam))))
    return acc


def hessian_relation_check(J: JacobiAlgebra, trials: int = 10, seed: int = 0) -> dict:
    """tr_{F/k}(p) = tr_G(f' p), checked on the spanning set x^i, i < 2n,
    and on `trials` random polynomials.  Returns a report dict."""
    dom = J.dom
    fp = J.f.derivative()
    n = J.dimension
    checked = 0

    def one_check(p: UniPoly) -> bool:
        return companion_trace(p, J.f) == grothendieck_trace(fp * p, J)

    for i in range(2 * n):
        if not one_check(UniPoly.one(dom).shift(i)):
            return {"ok": False, "failed_at": f"x^{i}", "checked": checked}
        checked += 1
    rng = random.Random(seed)
    for _ in range(trials):
        if dom.char == 0:
            coeffs = [Fraction(rng.randint(-9, 9)) for _ in range(2 * n)]
        else:
            coeffs = [rng.randrange(dom.char) for _ in range(2 * n)]
        if not one_check(UniPoly(dom, coeffs)):
            return {"ok": False, "failed_at": "random", "checked": checked}
        checked += 1
    return {"ok": True, "checked": checked}


def jacobi_idempotent_traces(J: JacobiAlgebra, splitting_degree: int):
    """For each root L_k, the idempotent e_k with tr_G(e_k) = 1/f'(L_k).

    Verified both ways: by coefficient extraction on e_k and by direct
    evaluation of 1/f'(L_k).  Also checks that the extended field trace of
    each idempotent is 1.  Returns a list of (root, trace value) pairs over
    the splitting field.
    """
    dom = J.dom
    if not isinstance(dom, Zmod):
        raise PotentialError("idempotent traces need a prime ground field")
    roots = roots_in_extension(J.f, splitting_degree)
    if len(roots) != J.dimension:
        raise PotentialError(f"f does not split in GF({dom.p}^{splitting_degree})")
    ext = GF(dom.p, splitting_degree)
    f_ext = UniPoly(ext, [ext.of(c) for c in J.f.coeffs])
    fp_ext = UniPoly(ext, [ext.of(c) for c in J.f.derivative().coeffs])
    n = J.dimension
    out = []
    for lam_k, e_k in zip(roots, lagrange_basis(ext, roots)):
        # coefficient-extraction trace of e_k in the extension
        tr_coeff = poly_mod(e_k, f_ext).coeff(n - 1)
        tr_resid = ext.inv(fp_ext.eval(lam_k))
        if tr_coeff != tr_resid:
            raise AssertionError("tr_G(e_k) != 1/f'(L_k); internal inconsistency")
        # extended field trace of e_k: sum of evaluations at all roots = 1
        field_tr = ext.zero
        for lam in roots:
            field_tr = ext.add(field_tr, e_k.eval(lam))
        if field_tr != ext.one:
            raise AssertionError("extended field trace of an idempotent is not 1")
        out.append((lam_k, tr_coeff))
    return out


def as_frobenius_backend(J: JacobiAlgebra) -> TableAlgebra:
    """The Jacobi algebra as a table backend (basis x^i, trace tr_G).

    Its handle element equals f' mod f, which the caller can confirm via
    fieldext.handle_element.
    """
    dom = J.dom
    n = J.dimension
    names = tuple("one" if i == 0 else ("x" if i == 1 else f"x^{i}") for i in range(n))
    mult = []
    for i in range(n):
        row = []
        for j in range(n):
            prod = poly_mod(UniPoly.one(dom).shift(i + j), J.f)
            row.append([prod.coeff(k) for k in range(n)])
        mult.append(row)
    trace = [dom.one if i == n - 1 else dom.zero for i in range(n)]
    unit = [dom.one if i == 0 else dom.zero for i in range(n)]
    ground = dom if isinstance(dom, Zmod) else None
    return TableAlgebra(names, mult, trace, unit, ground=ground, name="J")


def handle_is_hessian(J: JacobiAlgebra) -> bool:
    """handle element of (J(w), tr_G) == f' mod f."""
    backend = as_frobenius_backend(J)
    h = backend.handle_element(0)
    fp = J.reduce(J.f.derivative())
    want = tuple(fp.coeff(i) for i in range(J.dimension))
    return h == want
