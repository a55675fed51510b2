from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foamlib.exactalg import (
    GF,
    MultiPoly,
    NumberField,
    QQ,
    UniPoly,
    companion_trace,
    elementary_symmetric,
    esym,
    is_irreducible_ff,
    parse_poly,
    parse_unipoly,
    poly_divmod,
    roots_in_extension,
    smallest_irreducible,
)
from foamlib.exactalg.scalars import QQ_DOMAIN, zmod


# ---------------------------------------------------------------- divmod

def test_divmod_monomial_divisor():
    # (x^2 - 2) / x = (x, -2)
    f = parse_unipoly("x^2 - 2", QQ_DOMAIN)
    g = parse_unipoly("x", QQ_DOMAIN)
    q, r = poly_divmod(f, g)
    assert q == parse_unipoly("x", QQ_DOMAIN)
    assert r == parse_unipoly("-2", QQ_DOMAIN)


def test_divmod_gf2():
    # long division by hand over GF(2): x^3+x+1 = (x+1)(x^2+x+1) + x
    dom = zmod(2)
    f = UniPoly.from_ints(dom, [1, 1, 0, 1])
    g = UniPoly.from_ints(dom, [1, 1, 1])
    q, r = poly_divmod(f, g)
    assert q == UniPoly.from_ints(dom, [1, 1])
    assert r == UniPoly.from_ints(dom, [0, 1])


def test_divmod_self():
    f = parse_unipoly("x^3 - x - 1", QQ_DOMAIN)
    q, r = poly_divmod(f, f)
    assert q == UniPoly.one(QQ_DOMAIN)
    assert r.is_zero()


def test_divmod_by_zero_rejected():
    f = parse_unipoly("x", QQ_DOMAIN)
    with pytest.raises(ZeroDivisionError):
        poly_divmod(f, UniPoly.zero(QQ_DOMAIN))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-4, 4), max_size=7),
       st.lists(st.integers(-4, 4), min_size=1, max_size=4),
       st.sampled_from([QQ_DOMAIN, zmod(5), GF(3, 2)]), st.integers(0, 6))
def test_divmod_and_powmod_against_multiplication(a, b, dom, e):
    # monic and non-monic divisors over Q, Z/5 and GF(9)
    from foamlib.exactalg.unipoly import poly_mod, poly_powmod

    a = UniPoly(dom, [dom.of(c) for c in a])
    b = UniPoly(dom, [dom.of(c) for c in b])
    if b.is_zero():
        return
    q, r = poly_divmod(a, b)
    assert q * b + r == a and r.degree < b.degree
    power = UniPoly.one(dom)
    for _ in range(e):
        power = power * a
    assert poly_powmod(a, e, b) == (poly_mod(power, b) if e else UniPoly.one(dom))


# ---------------------------------------------------------- irreducibility

def test_irreducible_gf2_quadratic():
    dom = zmod(2)
    assert is_irreducible_ff(UniPoly.from_ints(dom, [1, 1, 1]))


def test_reducible_gf2():
    dom = zmod(2)
    # x^2 + 1 = (x+1)^2 over GF(2)
    assert not is_irreducible_ff(UniPoly.from_ints(dom, [1, 0, 1]))


def test_irreducible_gf2_cubic():
    dom = zmod(2)
    assert is_irreducible_ff(UniPoly.from_ints(dom, [1, 1, 0, 1]))


def test_non_monic_rejected():
    dom = zmod(3)
    with pytest.raises(ValueError):
        is_irreducible_ff(UniPoly.from_ints(dom, [1, 2]))


def test_smallest_irreducible_is_deterministic():
    assert smallest_irreducible(2, 2).coeffs == (1, 1, 1)
    f = smallest_irreducible(3, 4)
    assert f.is_monic() and f.degree == 4 and is_irreducible_ff(f)


# ------------------------------------------------------------------- roots

def test_roots_frobenius_orbit_gf4():
    dom = zmod(2)
    f = UniPoly.from_ints(dom, [1, 1, 1])
    roots = roots_in_extension(f, 2)
    assert len(roots) == 2
    k4 = GF(2, 2)
    # the two roots are swapped by the p-power map
    assert {k4.frobenius(r) for r in roots} == set(roots)
    assert roots[0] != roots[1]


def test_roots_linear():
    dom = zmod(3)
    f = UniPoly.from_ints(dom, [-1, 1])  # x - 1
    roots = roots_in_extension(f, 1)
    assert roots == [GF(3, 1).of(1)]


def test_roots_cubic_distinct():
    dom = zmod(2)
    f = UniPoly.from_ints(dom, [1, 1, 0, 1])
    roots = roots_in_extension(f, 3)
    assert len(roots) == len(set(roots)) == 3
    # closed under the p-power map
    k8 = GF(2, 3)
    assert {k8.frobenius(r) for r in roots} == set(roots)


def test_roots_empty_when_absent():
    dom = zmod(2)
    f = UniPoly.from_ints(dom, [1, 1, 1])
    assert roots_in_extension(f, 3) == []


@pytest.mark.parametrize("p", [2, 3, 5])
def test_roots_match_exhaustive_scan(p):
    # the first 30 monic f of each degree <= 4 against a scan of GF(p^m),
    # m <= 4: same roots, same order, a repeated root listed once
    from itertools import islice

    from foamlib.exactalg.ffield import _candidates

    for m in range(1, 5):
        field = GF(p, m)
        for deg in range(5):
            for f in islice(_candidates(p, deg), 30):
                lifted = UniPoly(field, [field.of(c) for c in f.coeffs])
                scan = sorted(a for a in field.elements()
                              if field.is_zero(lifted.eval(a)))
                assert roots_in_extension(f, m) == scan, (p, m, f)


# --------------------------------------------------------- companion trace

def test_companion_trace_identity():
    f = parse_unipoly("x^2 - 2", QQ_DOMAIN)
    assert companion_trace(UniPoly.one(QQ_DOMAIN), f) == 2


def test_companion_trace_x():
    f = parse_unipoly("x^2 - 2", QQ_DOMAIN)
    assert companion_trace(UniPoly.x(QQ_DOMAIN), f) == 0


def test_companion_trace_x_squared():
    f = parse_unipoly("x^2 - 2", QQ_DOMAIN)
    p = parse_unipoly("x^2", QQ_DOMAIN)
    assert companion_trace(p, f) == 4


def test_companion_trace_linear_and_kills_multiples():
    import random

    rng = random.Random(7)
    f = parse_unipoly("x^3 - x - 1", QQ_DOMAIN)
    for _ in range(20):
        a = UniPoly(QQ_DOMAIN, [Fraction(rng.randint(-9, 9)) for _ in range(5)])
        b = UniPoly(QQ_DOMAIN, [Fraction(rng.randint(-9, 9)) for _ in range(5)])
        assert companion_trace(a + b, f) == companion_trace(a, f) + companion_trace(
            b, f
        )
        assert companion_trace(a * f, f) == 0


# ------------------------------------------------------- multivariate algebra

def test_eval_multi_basic():
    p = parse_poly("y - z")
    assert p.eval({"y": Fraction(3), "z": Fraction(1)}) == 2


def test_eval_multi_esym():
    p = esym(["x1", "x2"], 2)
    assert p.eval({"x1": Fraction(2), "x2": Fraction(5)}) == 10


def test_eval_multi_zero_poly():
    assert MultiPoly.zero().eval({}) == 0


def test_eval_multi_missing_variable():
    with pytest.raises(KeyError):
        parse_poly("a*b + 1").eval({"a": Fraction(1)})


def test_elementary_symmetric_values():
    vals = [Fraction(1), Fraction(2), Fraction(3)]
    assert elementary_symmetric(0, vals) == 1
    assert elementary_symmetric(2, vals) == 11
    assert elementary_symmetric(3, vals) == 6
    with pytest.raises(ValueError):
        elementary_symmetric(4, vals)


def test_parse_render_roundtrip():
    for text in ["x^2 - 2", "a*b + 1", "2/3*x^2 - x + 1/2", "-x + 4"]:
        p = parse_poly(text)
        assert parse_poly(p.render()) == p


# ----------------------------------------------------------- ring axioms

small_fracs = st.fractions(
    min_value=-10, max_value=10, max_denominator=8
)


@given(st.lists(small_fracs, max_size=4), st.lists(small_fracs, max_size=4),
       st.lists(small_fracs, max_size=4))
@settings(max_examples=60, deadline=None)
def test_unipoly_ring_axioms_qq(a, b, c):
    pa = UniPoly(QQ_DOMAIN, a)
    pb = UniPoly(QQ_DOMAIN, b)
    pc = UniPoly(QQ_DOMAIN, c)
    assert (pa * pb) * pc == pa * (pb * pc)
    assert pa * (pb + pc) == pa * pb + pa * pc
    assert pa + pb == pb + pa


@given(st.integers(0, 8), st.integers(0, 8), st.integers(0, 8))
@settings(max_examples=40, deadline=None)
def test_ff_ring_axioms(ai, bi, ci):
    k9 = GF(3, 2)
    elems = list(k9.elements())
    a, b, c = elems[ai], elems[bi], elems[ci]
    assert k9.mul(k9.mul(a, b), c) == k9.mul(a, k9.mul(b, c))
    assert k9.mul(a, k9.add(b, c)) == k9.add(k9.mul(a, b), k9.mul(a, c))
    if not k9.is_zero(a):
        assert k9.mul(a, k9.inv(a)) == k9.one


@given(st.lists(small_fracs, min_size=2, max_size=6))
@settings(max_examples=50, deadline=None)
def test_newton_identity_spot_check(vals):
    # e1^2 - 2 e2 = p2
    e1 = elementary_symmetric(1, vals)
    e2 = elementary_symmetric(2, vals)
    p2 = sum(v * v for v in vals)
    assert e1 * e1 - 2 * e2 == p2


def _mpoly_strategy():
    mono = st.lists(
        st.tuples(st.sampled_from(["u", "v", "w"]), st.integers(1, 3)),
        max_size=2,
        unique_by=lambda t: t[0],
    ).map(lambda items: tuple(sorted(items)))
    return st.dictionaries(mono, st.integers(-5, 5), max_size=4).map(MultiPoly)


@given(_mpoly_strategy(), _mpoly_strategy(), _mpoly_strategy())
@settings(max_examples=50, deadline=None)
def test_multipoly_ring_axioms(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a - a == MultiPoly.zero()


def test_number_field_arithmetic():
    f = parse_unipoly("x^2 - 2", QQ_DOMAIN)
    K = NumberField(f)
    r2 = K.gen()
    assert K.mul(r2, r2) == K.of(2)
    inv = K.inv(r2)
    assert K.mul(inv, r2) == K.one


def test_gf_tower_sizes():
    assert GF(2, 2).size() == 4
    assert GF(3, 4).size() == 81
    assert len(list(GF(2, 3).elements())) == 8


def test_gf_custom_modulus():
    # x^3 + x^2 + 1 is the other irreducible cubic over GF(2)
    k8 = GF(2, 3, (1, 0, 1, 1))
    g = k8.gen()
    # g^3 = g^2 + 1 under this modulus
    assert k8.power(g, 3) == k8.add(k8.mul(g, g), k8.one)
    with pytest.raises(ValueError):
        GF(2, 2, (1, 0, 1))  # (x+1)^2 is reducible


def test_gf_inverse_everywhere():
    k9 = GF(3, 2)
    for a in k9.elements():
        if k9.is_zero(a):
            continue
        assert k9.mul(a, k9.inv(a)) == k9.one
