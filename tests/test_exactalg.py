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
from foamlib.exactalg.ffield import TABLE_BOUND
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


def _render_by_pair_key(p: MultiPoly) -> str:
    """The sort by (-degree, ((name, -exponent), ...)) that ranks stand in for."""
    def key(m):
        return (-sum(e for _, e in m), tuple((v, -e) for v, e in m))

    parts = []
    for m in sorted(p.terms, key=key):
        c = p.terms[m]
        body = "*".join(v if e == 1 else f"{v}^{e}" for v, e in m)
        if not body:
            body = str(abs(c))
        elif abs(c) != 1:
            body = f"{abs(c)}*{body}"
        parts.append(("-" if c < 0 else "") + body if not parts
                     else ("- " if c < 0 else "+ ") + body)
    return " ".join(parts)


_monomials = st.dictionaries(
    st.sampled_from(["a", "a1", "a2", "a10", "a11", "b", "b2", "x"]),
    st.sampled_from([1, 2, 3, 9, 10, 11, 21]), max_size=4,
).map(lambda m: tuple(sorted(m.items())))


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(_monomials, st.one_of(
    st.integers(-12, 12), st.fractions(min_value=-10, max_value=10, max_denominator=8)),
    max_size=12))
def test_render_order_is_the_pair_key_order(terms):
    # names like a2 and a10 and exponents from 10 up, where string and
    # numeric orders differ
    p = MultiPoly(terms)
    assert p.render() == (_render_by_pair_key(p) if p.terms else "0")


# ------------------------------------- packed MultiPoly against tuple keys
#
# The tuple-keyed arithmetic MultiPoly had before its keys were packed,
# kept as the reference: a polynomial is {((var, exp), ...): coeff} with
# names sorted, exponents > 0 and no zero coefficient.


def _mono_mul(a, b):
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


def _ref_add(p, q, sign=1):
    out = dict(p)
    for m, c in q.items():
        v = out.get(m, 0) + sign * c
        if v:
            out[m] = v
        else:
            out.pop(m, None)
    return out


def _ref_mul(p, q):
    out = {}
    for ma, ca in p.items():
        for mb, cb in q.items():
            m = _mono_mul(ma, mb)
            out[m] = out.get(m, 0) + ca * cb
    return {m: c for m, c in out.items() if c}


def _ref_subs_vars(p, mapping):
    out = {}
    for m, c in p.items():
        d = {}
        for v, e in m:
            w = mapping.get(v, v)
            d[w] = d.get(w, 0) + e
        mm = tuple(sorted(d.items()))
        out[mm] = out.get(mm, 0) + c
    return {m: c for m, c in out.items() if c}


def _ref_eval(p, point):
    total = Fraction(0)
    for m, c in p.items():
        for v, e in m:
            c *= Fraction(point[v]) ** e
        total += c
    return total


_PACK_NAMES = ["a", "a1", "a10", "a2", "b", "x"]
# words of 1 to 8 bits at first; sums of 256 upward need 9 or 10 bits
_PACK_EXPONENTS = [1, 2, 3, 11, 127, 200, 255, 256, 300]
_packed_monomials = st.dictionaries(
    st.sampled_from(_PACK_NAMES), st.sampled_from(_PACK_EXPONENTS), max_size=3,
).map(lambda m: tuple(sorted(m.items())))
_packed_coefficients = st.one_of(
    st.integers(-5, 5), st.fractions(min_value=-4, max_value=4, max_denominator=6))
_reference_polys = st.dictionaries(_packed_monomials, _packed_coefficients,
                                   max_size=6).map(lambda d: {m: c for m, c in d.items() if c})


@settings(max_examples=150, deadline=None)
@given(_reference_polys, _reference_polys, st.integers(0, 3), _packed_coefficients,
       st.dictionaries(st.sampled_from(_PACK_NAMES), st.sampled_from(_PACK_NAMES)),
       st.lists(st.one_of(st.integers(-3, 3), st.fractions(-2, 2, max_denominator=3)),
                min_size=len(_PACK_NAMES), max_size=len(_PACK_NAMES)))
def test_packed_multipoly_matches_the_tuple_reference(p, q, e, c, mapping, values):
    # p and q use different name tuples, and often different widths
    P, Q = MultiPoly(p), MultiPoly(q)
    assert (P + Q).terms == _ref_add(p, q)
    assert (P - Q).terms == _ref_add(p, q, -1)
    assert (P * Q).terms == _ref_mul(p, q)
    power = {(): 1}
    for _ in range(e):
        power = _ref_mul(power, p)
    assert (P ** e).terms == power
    assert P.scale(c).terms == ({m: c * v for m, v in p.items()} if c else {})
    assert (-P).terms == {m: -v for m, v in p.items()}
    # renames that swap or merge names
    assert P.subs_vars(mapping).terms == _ref_subs_vars(p, mapping)
    point = dict(zip(_PACK_NAMES, values))
    assert P.eval(point) == _ref_eval(p, point)
    for name in _PACK_NAMES:
        assert P.degree_in(name) == max((e for m in p for v, e in m if v == name), default=0)
    assert P.total_degree() == max((sum(e for _, e in m) for m in p), default=0)
    assert P.variables() == {v for m in p for v, _ in m}
    assert P.render() == (_render_by_pair_key(P) if p else "0")
    # the terms view: len, items, [], membership and == with a dict
    view = (P * Q).terms
    want = _ref_mul(p, q)
    assert len(view) == len(want)
    assert dict(view.items()) == want and view == want
    assert sorted(view) == sorted(want)
    for m, v in want.items():
        assert view[m] == v and m in view
    assert (("zz", 1),) not in view


def test_products_that_cross_a_word_repack_wider():
    x, y = MultiPoly.var("x"), MultiPoly.var("y")
    # the word is as wide as the degree bound needs: 31 fits 5 bits, 32 needs 6
    n = MultiPoly({(("x", 16),): 1, (("y", 1),): 1})
    assert n.layout.width == 5
    sq = n * n
    assert sq.layout.width == 6
    assert sq.terms == {(("x", 32),): 1, (("x", 16), ("y", 1)): 2, (("y", 2),): 1}
    p = x ** 200 * y
    assert p.layout.width == 8
    q = p * x ** 100
    assert q.layout.width == 9 and q.terms == {(("x", 300), ("y", 1)): 1}
    r = (x ** 40000) * (x ** 30000 + y)
    assert r.layout.width == 17
    assert r.terms == {(("x", 70000),): 1, (("x", 40000), ("y", 1)): 1}
    assert r.degree_in("x") == 70000 and r.total_degree() == 70000
    # the dots of the overlap regression, s1^127 s1^127 s1^5
    s1 = MultiPoly.var("s1")
    assert (s1 ** 127 * s1 ** 127 * s1 ** 5).terms == {(("s1", 259),): 1}
    assert (x ** 255 * y).render() == "x^255*y"


def test_equal_polys_on_other_layouts_compare_and_hash_equal():
    a, b, c = MultiPoly.var("a"), MultiPoly.var("b"), MultiPoly.var("c")
    p = a * a + b
    wider_names = (p + c) - c  # c is in the name tuple, unused
    wider_words = (p + a ** 300) - a ** 300  # 9-bit words
    assert (p.layout.names, p.layout.width) == (("a", "b"), 8)
    assert (wider_names.layout.names, wider_names.layout.width) == (("a", "b", "c"), 8)
    assert (wider_words.layout.names, wider_words.layout.width) == (("a", "b"), 9)
    for other in (wider_names, wider_words, parse_poly("b + a^2")):
        assert other == p and p == other
        assert hash(other) == hash(p)
        assert other.render() == p.render() == "a^2 + b"
    assert a - a == MultiPoly.zero() and hash(a - a) == hash(MultiPoly.zero())
    assert p != p + c - b


@settings(max_examples=60, deadline=None)
@given(_reference_polys, _reference_polys)
def test_equality_and_hash_ignore_unused_names_and_widths(p, q):
    P = MultiPoly(p)
    padded = (P + MultiPoly(q)) - MultiPoly(q)
    assert padded == P and hash(padded) == hash(P)
    assert (padded == MultiPoly(q)) == (p == q)


def test_packed_on_takes_a_layout_that_holds_the_names_used():
    from foamlib.exactalg.multipoly import packed_layout

    a, b, c = MultiPoly.var("a"), MultiPoly.var("b"), MultiPoly.var("c")
    p = (a * b + c) - c  # c is in its name tuple, unused
    layout = packed_layout(["a", "b"], 2)
    assert MultiPoly.from_packed(layout, p.packed_on(layout)) == a * b
    with pytest.raises(ValueError):
        p.packed_on(packed_layout(["a"], 2))  # b is used
    with pytest.raises(ValueError):
        (a ** 300).packed_on(packed_layout(["a"], 255))  # 300 needs 9 bits


def test_terms_is_a_read_only_view():
    p = parse_poly("2*a^3*b - 1/2")
    view = p.terms
    assert dict(view) == {(("a", 3), ("b", 1)): 2, (): Fraction(-1, 2)}
    with pytest.raises(TypeError):
        view[()] = 1
    with pytest.raises(KeyError):
        view[(("a", 1),)]
    with pytest.raises(KeyError):
        view[(("zz", 1),)]
    # nothing decoded is kept on the polynomial
    assert not hasattr(p, "__dict__")
    assert set(MultiPoly.__slots__) == {"layout", "packed"}


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


# ------------------------------------------------------ log/antilog tables

TABLE_FIELDS = [(3, 2), (2, 6), (3, 4), (2, 10), (3, 6)]


def _sample(field, count, seed):
    import random

    rng = random.Random(seed)
    p, n = field.char, field.degree
    return [tuple(rng.randrange(p) for _ in range(n)) for _ in range(count)]


@pytest.mark.parametrize("p,n", TABLE_FIELDS)
def test_tables_hold_every_power_of_a_generator(p, n):
    F = GF(p, n)
    units = F.size() - 1
    assert len(F._log) == units  # g has order q - 1
    assert len(F._exp) == 2 * units
    assert F._exp[0] == F.one and F._exp[units] == F.one
    g = F._exp[1]
    for i, a in enumerate(F._exp[:units]):
        assert F._log[a] == i
        assert F._exp[i + 1] == F._schoolbook_mul(a, g)


@pytest.mark.parametrize("p,n", [(3, 2), (2, 6), (3, 4)])
def test_table_mul_matches_schoolbook_on_every_pair(p, n):
    F = GF(p, n)
    elements = list(F.elements())
    for a in elements:
        for b in elements:
            assert F.mul(a, b) == F._schoolbook_mul(a, b), (a, b)


@pytest.mark.parametrize("p,n", [(2, 10), (3, 6), (3, 8)])
def test_mul_matches_polynomial_product_on_sampled_pairs(p, n):
    # GF(3^8) is above the table bound and keeps the schoolbook product
    F = GF(p, n)
    assert (F._log is None) == (F.size() > TABLE_BOUND)
    xs, ys = _sample(F, 400, 1), _sample(F, 400, 2)
    for a, b in zip(xs + [F.zero] * 3, ys + [ys[0], F.zero, F.one]):
        assert F.mul(a, b) == F.from_poly(F.to_poly(a) * F.to_poly(b)), (a, b)
        assert F.mul(a, b) == F._schoolbook_mul(a, b)


@pytest.mark.parametrize("p,n", [(3, 2), (2, 6), (3, 4), (2, 10)])
def test_table_inverse_of_every_unit(p, n):
    F = GF(p, n)
    for a in F.elements():
        if a != F.zero:
            assert F._schoolbook_mul(F.inv(a), a) == F.one, a


@pytest.mark.parametrize("p,n", [(3, 2), (2, 6), (3, 4), (3, 8)])
def test_power_matches_repeated_multiplication(p, n):
    F = GF(p, n)
    elements = list(F.elements()) if F.size() <= 81 else _sample(F, 60, 3)
    for a in elements + [F.zero]:
        r = F.one
        for e in range(12):
            assert F.power(a, e) == r, (a, e)
            if a != F.zero:
                assert F.power(a, -e) == F.inv(r), (a, -e)
            r = F._schoolbook_mul(r, a)
        assert F.power(a, F.size()) == a  # Frobenius to the top is 1
    assert F.power(F.zero, 0) == F.one
    with pytest.raises(ZeroDivisionError):
        F.power(F.zero, -1)


def test_non_canonical_tuples_take_the_schoolbook_product():
    F = GF(3, 4)
    for a in [(-1, 4, 0, 5), (3, 0, 0, 0), (0, -3, 6, 3), (1, 0, 0, 3)]:
        canon = tuple(c % 3 for c in a)
        assert a not in F._log
        for b in _sample(F, 40, 4) + [F.zero, F.one, a]:
            assert F.mul(a, b) == F._schoolbook_mul(a, b)
            assert F.mul(b, a) == F.mul(canon, tuple(c % 3 for c in b))
        if canon != F.zero:
            assert F.inv(a) == F.inv(canon)
            assert F.power(a, 5) == F.power(canon, 5)
            assert F.power(a, -2) == F.power(canon, -2)
        else:
            with pytest.raises(ZeroDivisionError):
                F.inv(a)


@pytest.mark.parametrize("p,n", [(3, 4), (3, 8)])
def test_inverse_of_zero_raises(p, n):
    F = GF(p, n)
    with pytest.raises(ZeroDivisionError, match=rf"inverse of 0 in GF\({p}\^{n}\)"):
        F.inv(F.zero)


def test_is_prime_agrees_with_trial_division():
    from foamlib.exactalg.scalars import is_prime

    def trial(n):
        return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))

    assert [n for n in range(10**4) if is_prime(n) != trial(n)] == []


def test_zmod_refuses_pseudoprimes_and_takes_large_primes():
    import time

    # Carmichael numbers (211 * 421 * 631 is prime to every base, so only
    # the strong test refuses it), and a strong pseudoprime to 2, 3, 5, 7
    for n in (561, 211 * 421 * 631, 3215031751):
        with pytest.raises(ValueError):
            zmod(n)
    t0 = time.perf_counter()
    dom = zmod(2**61 - 1)
    assert time.perf_counter() - t0 < 0.5
    assert dom.mul(dom.inv(3), 3) == 1


def test_zmod_refuses_moduli_beyond_the_exact_test():
    from foamlib.exactalg.scalars import PRIME_BOUND, Zmod

    # PRIME_BOUND itself is a strong pseudoprime to every base of the test
    for n in (PRIME_BOUND, 10**400):
        with pytest.raises(ValueError, match="below"):
            Zmod(n)
