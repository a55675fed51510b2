import pytest

from foamlib.exactalg.multipoly import MultiPoly, esym, parse_poly
from foamlib.sylfoam import (
    FlowerFoam,
    FoamValueError,
    MaxSurface,
    OverlapDiagram,
    alphabet,
    chen_louck_sides,
    diagram_dksv_sides,
    diagram_exchange_sides,
    diagram_product_formula_sides,
    diagram_sylvester,
    dksv_sides,
    evaluate_overlap,
    exchange_sides_terms,
    fraction_free_sum,
    r_product,
    slots,
    sylvester_double_sum,
    verify_chen_louck,
    verify_dksv,
    verify_exchange,
)


# ------------------------------------------------------------------ R-product

def test_r_product_single_pair():
    assert r_product(["y"], ["z"]) == parse_poly("y - z")


def test_r_product_empty():
    assert r_product([], ["z1", "z2"]) == MultiPoly.one()
    assert r_product(["y"], []) == MultiPoly.one()


def test_r_product_expanded():
    got = r_product(["a1", "a2"], ["b"])
    assert got == parse_poly("(a1 - b)*(a2 - b)")


def test_r_product_disjointness_guard():
    with pytest.raises(FoamValueError):
        r_product(["y"], ["y"])


def test_r_sign_swap():
    for ny, nz in [(1, 1), (2, 1), (2, 3), (3, 3)]:
        Y = [f"y{i}" for i in range(ny)]
        Z = [f"z{i}" for i in range(nz)]
        assert r_product(Y, Z) == r_product(Z, Y).scale((-1) ** (ny * nz))


# ------------------------------------------------------------- Sylvester sums

def test_syl_00_is_r_product():
    A, B = alphabet("A", 3), alphabet("B", 2)
    assert sylvester_double_sum(A, B, 0, 0) == r_product(A.variables, B.variables)


def test_syl_2_1_hand_value():
    # m=2, n=1, p=1, q=0: the two terms sum to (a1-a2)(x-b1)/(a2-a1) = b1 - x
    A, B = alphabet("A", 2), alphabet("B", 1)
    assert sylvester_double_sum(A, B, 1, 0) == parse_poly("b1 - x")


def test_syl_degree_bound():
    for m in range(1, 5):
        for n in range(1, 5):
            A, B = alphabet("A", m), alphabet("B", n)
            for p in range(m + 1):
                for q in range(n + 1):
                    s = sylvester_double_sum(A, B, p, q)
                    assert s.degree_in("x") <= p + q


def test_syl_out_of_range():
    with pytest.raises(FoamValueError):
        sylvester_double_sum(alphabet("A", 2), alphabet("B", 2), 3, 0)


def test_syl_symmetric_in_each_alphabet():
    A, B = alphabet("A", 3), alphabet("B", 2)
    s = sylvester_double_sum(A, B, 1, 1)
    assert s.subs_vars({"a1": "a2", "a2": "a1"}) == s
    assert s.subs_vars({"a2": "a3", "a3": "a2"}) == s
    assert s.subs_vars({"b1": "b2", "b2": "b1"}) == s


# ------------------------------------------------------------ overlap diagrams

def test_single_max_surface_any_genus():
    V = alphabet("V", 3)
    f = esym(slots(3), 2)
    for genus in (0, 1, 2):
        d = OverlapDiagram((("V", MaxSurface(V, genus=genus, dots=(f,))),), ())
        assert evaluate_overlap(d) == esym(V.variables, 2)


def test_two_surfaces_one_circle_is_r_product():
    Y, Z = alphabet("Y", 2), alphabet("Z", 3)
    d = OverlapDiagram(
        (("Y", MaxSurface(Y, genus=1)), ("Z", MaxSurface(Z))),
        ((("Y", None), ("Z", None)),),
    )
    assert evaluate_overlap(d) == r_product(Y.variables, Z.variables)


def test_sylvester_diagram_matches_formula():
    for m, n in [(1, 1), (2, 1), (2, 2), (3, 2), (3, 3)]:
        A, B = alphabet("A", m), alphabet("B", n)
        for p in range(m + 1):
            for q in range(n + 1):
                d = diagram_sylvester(A, B, p, q)
                assert evaluate_overlap(d) == sylvester_double_sum(A, B, p, q)


def test_asymmetric_dot_rejected():
    with pytest.raises(FoamValueError):
        FlowerFoam(alphabet("A", 2), (2,), (MultiPoly.var("s1"),))


def test_flower_petal_sizes_guard():
    with pytest.raises(FoamValueError):
        FlowerFoam(alphabet("A", 3), (1, 1))


def test_overlapping_alphabets_rejected():
    A = alphabet("A", 2)
    with pytest.raises(FoamValueError):
        OverlapDiagram((("P", MaxSurface(A)), ("Q", MaxSurface(A))), ())


# --------------------------------------------------------------- the exchange

def test_exchange_symbolic_small():
    for m, n in [(1, 1), (2, 2), (3, 2), (3, 3)]:
        for entry in verify_exchange(m, n, "symbolic"):
            assert entry["ok"], (m, n, entry)


def test_exchange_grid_larger():
    for m, n in [(4, 3), (4, 4)]:
        for entry in verify_exchange(m, n, "grid"):
            assert entry["ok"], (m, n, entry)


def test_exchange_random_mode():
    for entry in verify_exchange(3, 3, "random", seed=5):
        assert entry["ok"]


def test_exchange_d1_m1_hand_case():
    # m = n = 1, d = 1 forces an empty X-alphabet; both sides are 1
    A, B, X = alphabet("A", 1), alphabet("B", 1), alphabet("X", 0)
    lhs, rhs = exchange_sides_terms(A, B, X, 1)
    left = fraction_free_sum(lhs(), [A.variables, B.variables])
    right = fraction_free_sum(rhs(), [A.variables, B.variables])
    assert left == right == MultiPoly.one()


def test_exchange_fails_beyond_size_bound():
    # with |X| = m + n - 2d + 1 the two sides genuinely differ
    A, B, X = alphabet("A", 1), alphabet("B", 1), alphabet("X", 1)
    lhs, rhs = exchange_sides_terms(A, B, X, 1)
    left = fraction_free_sum(lhs(), [A.variables, B.variables])
    right = fraction_free_sum(rhs(), [A.variables, B.variables])
    assert left == parse_poly("x1 - a1")
    assert right == parse_poly("x1 - b1")
    assert left != right


def test_exchange_diagrams_match_formula():
    for m, n, d in [(2, 2, 1), (3, 2, 1), (3, 3, 2)]:
        A, B = alphabet("A", m), alphabet("B", n)
        X = alphabet("X", m + n - 2 * d)
        L, R = diagram_exchange_sides(A, B, X, d)
        lt, rt = exchange_sides_terms(A, B, X, d)
        deltas = [A.variables, B.variables]
        assert evaluate_overlap(L) == fraction_free_sum(lt(), deltas)
        assert evaluate_overlap(R) == fraction_free_sum(rt(), deltas)
        assert evaluate_overlap(L) == evaluate_overlap(R)


# ----------------------------------------------------------------- Chen-Louck

def test_chen_louck_lagrange_case():
    # m = d + 1: one X variable, classical Lagrange interpolation
    f = MultiPoly.var("s1")
    assert verify_chen_louck(2, 1, f)["ok"]
    f2 = parse_poly("s1^2 - 3*s1 + 1")
    assert verify_chen_louck(3, 2, f2)["ok"]


def test_chen_louck_product_case():
    # x1 x2 = sum over singleton subsets, m = 3, d = 1
    assert verify_chen_louck(3, 1)["ok"]
    assert verify_chen_louck(4, 2, mode="grid")["ok"]


def test_chen_louck_degree_guard():
    f = parse_poly("s1^2")  # degree 2 > d = 1
    with pytest.raises(FoamValueError):
        verify_chen_louck(2, 1, f)


def test_product_formula_diagrams():
    for m, d in [(2, 1), (3, 1), (3, 2), (4, 2)]:
        A, X = alphabet("A", m), alphabet("X", m - d)
        L, R = diagram_product_formula_sides(A, X, d)
        assert evaluate_overlap(L) == evaluate_overlap(R)


# ----------------------------------------------------------------------- DKSV

def test_dksv_symbolic():
    assert verify_dksv(2, 1, 1, 1, 2)["ok"]
    assert verify_dksv(2, 2, 1, 1, 3)["ok"]


def test_dksv_grid():
    assert verify_dksv(2, 2, 1, 1, 4, mode="grid")["ok"]
    assert verify_dksv(3, 2, 2, 1, 4, mode="grid")["ok"]


def test_dksv_size_guard():
    with pytest.raises(FoamValueError):
        verify_dksv(3, 3, 1, 1, 3)


def test_dksv_diagrams_match_formula():
    for m, n, d, sx, se in [(2, 1, 1, 1, 2), (2, 2, 1, 1, 3)]:
        A, B = alphabet("A", m), alphabet("B", n)
        X, E = alphabet("X", sx), alphabet("E", se)
        L, R = diagram_dksv_sides(A, B, X, E, d)
        lt, rt = dksv_sides(A, B, X, E, d)
        deltas = [A.variables, E.variables]
        assert evaluate_overlap(L) == fraction_free_sum(lt(), deltas)
        assert evaluate_overlap(R) == fraction_free_sum(rt(), deltas)


# ------------------------------------------- dense engine cross-validation

def _vandermonde(alphabets):
    from foamlib.sylfoam import vandermonde_factors

    delta = MultiPoly.one()
    for vs in alphabets:
        for u, v in vandermonde_factors(vs):
            delta = delta * (MultiPoly.var(u) - MultiPoly.var(v))
    return delta


def _cleared_reference(terms, alphabets):
    """The sum of the terms times V, with MultiPoly `*` and `-` only.

    A term times V is sign * cof * prod polys * prod lin: cof multiplies
    the factors of V missing from the denominator, and sign is -1 per
    denominator factor written (v, u) against V's (u, v).  Nothing is
    divided, so no synthetic division is shared with the engine.
    """
    from foamlib.sylfoam import vandermonde_factors

    factors = [f for vs in alphabets for f in vandermonde_factors(vs)]
    total = MultiPoly.zero()
    for term in terms:
        den = set(term.den)
        num = MultiPoly.one()
        negative = False
        for u, v in factors:
            if (v, u) in den:
                negative = not negative
            elif (u, v) not in den:
                num = num * (MultiPoly.var(u) - MultiPoly.var(v))
        for p in term.polys:
            num = num * p
        for u, v in term.lin:
            num = num * (MultiPoly.var(u) - MultiPoly.var(v))
        total = total - num if negative else total + num
    return total


def _matches_reference(terms, alphabets):
    return (fraction_free_sum(terms, alphabets) * _vandermonde(alphabets)
            == _cleared_reference(terms, alphabets))


def test_fraction_free_sum_matches_reference():
    # the packed-exponent engine against the division-free reference, on
    # term families whose sums genuinely clear their denominators
    from foamlib.sylfoam import sylvester_terms

    for m, n, p, q in [(2, 2, 1, 1), (3, 2, 2, 0), (3, 3, 1, 2)]:
        A, B = alphabet("A", m), alphabet("B", n)
        deltas = [A.variables, B.variables]
        terms = list(sylvester_terms(A, B, p, q))
        assert _matches_reference(terms, deltas)
        # the reference notices a dropped term
        assert (fraction_free_sum(terms, deltas) * _vandermonde(deltas)
                != _cleared_reference(terms[1:], deltas))

    for m, d in [(3, 1), (4, 2)]:
        A, X = alphabet("A", m), alphabet("X", m - d)
        _, rhs = chen_louck_sides(A, X, d, esym(slots(m - d), m - d))
        assert _matches_reference(list(rhs()), [A.variables])

    A, B, X = alphabet("A", 3), alphabet("B", 3), alphabet("X", 2)
    lhs, rhs = exchange_sides_terms(A, B, X, 2)
    assert _matches_reference(list(lhs()), [A.variables])
    assert _matches_reference(list(rhs()), [B.variables])


def test_dense_division_is_loud():
    from foamlib.sylfoam import _dense_divexact_linear, _to_dense

    shift_of = {"u": 0, "v": 8}
    u, v = MultiPoly.var("u"), MultiPoly.var("v")
    exact = _to_dense((u - v) * (u * u + v), shift_of)
    assert _dense_divexact_linear(exact, 0, 8, 255) == _to_dense(u * u + v, shift_of)
    with pytest.raises(ArithmeticError):
        _dense_divexact_linear(_to_dense(u * u + v, shift_of), 0, 8, 255)


def test_full_sylvester_sum_is_the_bare_product():
    # p = m, q = n: one term, no denominator, every linear factor common
    for m, n in [(1, 1), (2, 1), (2, 2), (3, 2), (3, 3)]:
        A, B = alphabet("A", m), alphabet("B", n)
        assert sylvester_double_sum(A, B, m, n) == (
            r_product(A.variables, B.variables) * r_product(["x"], A.variables)
            * r_product(["x"], B.variables))


def test_reversed_denominators_sum_with_signs():
    # sum_i a_i^k / prod_{j != i} (a_i - a_j) = h_{k-2}(a): the same
    # factor is written (a_i, a_j) in one term and (a_j, a_i) in another
    from foamlib.sylfoam import Term

    names = ["a1", "a2", "a3"]
    for k, expected in [(2, "1"), (3, "a1 + a2 + a3"),
                        (4, "a1^2 + a2^2 + a3^2 + a1*a2 + a1*a3 + a2*a3")]:
        terms = [Term((MultiPoly.var(u) ** k,), (),
                      tuple((u, v) for v in names if v != u)) for u in names]
        assert fraction_free_sum(terms, [names]) == parse_poly(expected)


def test_common_factor_that_is_also_a_denominator():
    # (a1 - a2) / (a1 - a2) and (a2 - a1) / (a1 - a2), each the only term
    from foamlib.sylfoam import Term

    one = Term((), (("a1", "a2"),), (("a1", "a2"),))
    minus_one = Term((), (("a2", "a1"), ("x", "a1")), (("a1", "a2"),))
    assert fraction_free_sum([one], [("a1", "a2")]) == MultiPoly.one()
    assert fraction_free_sum([minus_one], [("a1", "a2")]) == parse_poly("a1 - x")


def test_sum_that_is_not_a_polynomial_raises():
    from foamlib.sylfoam import Term

    with pytest.raises(ArithmeticError):
        fraction_free_sum([Term((), (), (("a1", "a2"),))], [("a1", "a2")])


def _symmetrized_term_sets():
    """Term sets over one or two alphabets whose sums are polynomials.

    Each drawn term has distinct Vandermonde factors as its denominator,
    in either orientation, plus linear and small MultiPoly factors over
    the alphabets and a spectator x.  Summing its images under every
    permutation of each alphabet gives (antisymmetrized numerator) / V,
    which is a polynomial.  Up to two further linear factors are shared
    by every term of a set.
    """
    import itertools
    from fractions import Fraction

    from hypothesis import strategies as st

    from foamlib.sylfoam import Term, vandermonde_factors

    def over(alphabets):
        names = [v for vs in alphabets for v in vs] + ["x"]
        factors = [f for vs in alphabets for f in vandermonde_factors(vs)]
        pair = st.tuples(st.sampled_from(names), st.sampled_from(names)).filter(
            lambda uv: uv[0] != uv[1])
        den = st.lists(st.tuples(st.sampled_from(factors), st.booleans()),
                       max_size=len(factors), unique_by=lambda fb: fb[0]).map(
            lambda fbs: tuple((v, u) if flip else (u, v) for (u, v), flip in fbs))
        coeff = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 3))
        mono = st.lists(st.tuples(st.sampled_from(names), st.integers(1, 2)),
                        max_size=2, unique_by=lambda ve: ve[0]).map(
            lambda ms: tuple(sorted(ms)))
        poly = st.dictionaries(mono, coeff, max_size=2).map(MultiPoly)
        term = st.builds(Term, st.lists(poly, max_size=2).map(tuple),
                         st.lists(pair, max_size=3).map(tuple), den)
        # linear factors put into every term (a spectator y, x or an
        # alphabet pair, maybe a denominator factor too): the sum gets them
        # as a common factor
        shared = st.lists(
            st.tuples(st.sampled_from(names + ["y"]),
                      st.sampled_from(names + ["y"])).filter(lambda uv: uv[0] != uv[1]),
            max_size=2).map(tuple)

        flat = [v for vs in alphabets for v in vs]
        perms = [dict(zip(flat, itertools.chain(*images)))
                 for images in itertools.product(
                     *[itertools.permutations(vs) for vs in alphabets])]

        def rename(pairs, sigma):
            return tuple((sigma.get(u, u), sigma.get(v, v)) for u, v in pairs)

        def symmetrize(base):
            return [Term(tuple(p.subs_vars(sigma) for p in t.polys),
                         rename(t.lin, sigma), rename(t.den, sigma))
                    for t in base for sigma in perms]

        def with_shared(base, common):
            return [Term(t.polys, t.lin + common, t.den) for t in symmetrize(base)]

        return st.builds(with_shared, st.lists(term, min_size=1, max_size=2),
                         shared).map(lambda terms: (terms, alphabets))

    return st.one_of(over([("a1", "a2", "a3")]),
                     over([("a1", "a2"), ("b1", "b2")]))


def test_fraction_free_sum_matches_reference_on_random_terms():
    from hypothesis import given, settings

    @settings(max_examples=60, deadline=None)
    @given(_symmetrized_term_sets())
    def check(case):
        terms, alphabets = case
        assert _matches_reference(terms, alphabets)

    check()


# --------------------------------------- diagram families at larger sizes

def test_exchange_diagram_family_line_sweeps():
    # foam = formula for the exchange sides up to m + n = 7, checked in grid
    # mode (symbolic equality is tested at small sizes)
    from foamlib.sylfoam import overlap_matches_polynomial

    for m in range(1, 5):
        for n in range(1, 8 - m):
            for d in range(0, min(m, n) + 1):
                A, B = alphabet("A", m), alphabet("B", n)
                X = alphabet("X", m + n - 2 * d)
                L, R = diagram_exchange_sides(A, B, X, d)
                lt, rt = exchange_sides_terms(A, B, X, d)
                assert overlap_matches_polynomial(L, lt)
                assert overlap_matches_polynomial(R, rt)


def test_dksv_diagram_family_line_sweeps():
    from foamlib.sylfoam import overlap_matches_polynomial

    for m, n, d, sx, se in [(2, 2, 1, 1, 4), (3, 2, 1, 1, 4), (3, 2, 2, 1, 5),
                            (2, 3, 1, 2, 5)]:
        A, B = alphabet("A", m), alphabet("B", n)
        X, E = alphabet("X", sx), alphabet("E", se)
        L, R = diagram_dksv_sides(A, B, X, E, d)
        lt, rt = dksv_sides(A, B, X, E, d)
        assert overlap_matches_polynomial(L, lt)
        assert overlap_matches_polynomial(R, rt)


# ---------------------------------------------------- mode cross-agreement

def test_symbolic_and_grid_agree():
    for m, n in [(2, 2), (3, 2)]:
        sym = verify_exchange(m, n, "symbolic")
        grd = verify_exchange(m, n, "grid")
        assert [e["ok"] for e in sym] == [e["ok"] for e in grd]
    assert verify_chen_louck(3, 1, mode="symbolic")["ok"] == \
        verify_chen_louck(3, 1, mode="grid")["ok"]


# ------------------------------------------------------------ grid mode

def test_grid_refutes_identity_that_agrees_at_base_point():
    # (a2 - a1)^2 and (a3 - a1)(a2 - a1)/2 agree whenever a3 - a2 = a2 - a1,
    # which held at every point of a line moving all variables alike
    from fractions import Fraction

    from foamlib.sylfoam import Term, _check_identity

    def lhs():
        yield Term((), (("a2", "a1"), ("a2", "a1")), ())

    def rhs():
        yield Term((MultiPoly.const(Fraction(1, 2)),),
                   (("a3", "a1"), ("a2", "a1")), ())

    assert not _check_identity(lhs, rhs, ["a1", "a2", "a3"], [], "grid")
    assert _check_identity(lhs, lhs, ["a1", "a2", "a3"], [], "grid")


def _grid_point_counts(monkeypatch):
    from foamlib import sylfoam

    counts = []
    inner = sylfoam.grid_assignments

    def counted(variables, degree):
        counts.append(0)
        for point in inner(variables, degree):
            counts[-1] += 1
            yield point

    monkeypatch.setattr(sylfoam, "grid_assignments", counted)
    return counts


def test_grid_point_count_is_cleared_degree_plus_one(monkeypatch):
    from foamlib.sylfoam import cleared_degree

    counts = _grid_point_counts(monkeypatch)
    # Exchange m = n = 3: deg V(A)V(B) = 6, terms of degree mn - d^2
    assert all(e["ok"] for e in verify_exchange(3, 3, "grid"))
    assert counts == [6 + 9 - d * d + 1 for d in range(4)]
    # DKSV m = n = 2, d = 1, |X| = 1, |E| = 4: deg V(A)V(E) = 7, terms of degree 2
    A, B, X, E = (alphabet("A", 2), alphabet("B", 2), alphabet("X", 1),
                  alphabet("E", 4))
    lt, rt = dksv_sides(A, B, X, E, 1)
    deltas = [A.variables, E.variables]
    assert cleared_degree(list(lt()) + list(rt()), deltas) == 9
    counts.clear()
    assert verify_dksv(2, 2, 1, 1, 4, "grid")["ok"]
    assert counts == [10]
    # Chen-Louck m = 5, d = 2: deg V(A) = 10, e_3 of degree 3 on both sides
    counts.clear()
    assert verify_chen_louck(5, 2, mode="grid")["ok"]
    assert counts == [14]


def test_cleared_degree_rejects_foreign_denominator():
    from foamlib.sylfoam import Term, cleared_degree

    with pytest.raises(FoamValueError):
        cleared_degree([Term((), (), (("a1", "b1"),))], [["a1", "a2"], ["b1"]])
    with pytest.raises(FoamValueError):
        cleared_degree([Term((), (), (("a1", "a2"), ("a2", "a1")))], [["a1", "a2"]])


def test_grid_line_keeps_variables_apart():
    from fractions import Fraction

    from foamlib.sylfoam import grid_assignments

    points = list(grid_assignments(["v0", "v1", "v2", "v3"], 5))
    assert len(points) == 6
    for pt in points:
        assert all(isinstance(x, int) for x in pt.values())
        assert len(set(pt.values())) == 4
    # differences vary along the line, and not in proportion
    d10 = [pt["v1"] - pt["v0"] for pt in points]
    d32 = [pt["v3"] - pt["v2"] for pt in points]
    assert len(set(d10)) == 6
    assert len({Fraction(a, b) for a, b in zip(d10, d32)}) > 1


def test_overlap_exponents_beyond_eight_bits():
    s1 = MultiPoly.var("s1")
    X = alphabet("X", 1)
    diagram = OverlapDiagram(
        (("X", MaxSurface(X, dots=(s1 ** 127, s1 ** 127, s1 ** 5))),), ())
    assert evaluate_overlap(diagram) == MultiPoly.var("x1") ** 259


# ------------------------------------------------ evaluate_terms_at property

_VARS = ("a1", "a2", "a3", "b1")


def _naive_value(terms, point):
    from fractions import Fraction

    total = Fraction(0)
    for t in terms:
        value = Fraction(1)
        for p in t.polys:
            pv = Fraction(0)
            for mono, c in p.terms.items():
                acc = Fraction(c)
                for v, e in mono:
                    acc *= Fraction(point[v]) ** e
                pv += acc
            value *= pv
        for u, v in t.lin:
            value *= Fraction(point[u]) - Fraction(point[v])
        for u, v in t.den:
            value /= Fraction(point[u]) - Fraction(point[v])
        total += value
    return total


def _term_sets():
    from fractions import Fraction

    from hypothesis import strategies as st

    from foamlib.sylfoam import Term

    pair = st.tuples(st.sampled_from(_VARS), st.sampled_from(_VARS)).filter(
        lambda uv: uv[0] != uv[1])
    coeff = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4))
    mono = st.lists(st.tuples(st.sampled_from(_VARS), st.integers(1, 3)),
                    max_size=2, unique_by=lambda ve: ve[0]).map(
        lambda ms: tuple(sorted(ms)))
    poly = st.dictionaries(mono, coeff, max_size=3).map(MultiPoly)
    term = st.builds(
        Term,
        st.lists(poly, max_size=2).map(tuple),
        st.lists(pair, max_size=4).map(tuple),
        st.lists(pair, max_size=3).map(tuple),
    )
    return st.lists(term, max_size=6)


def _points():
    from fractions import Fraction

    from hypothesis import strategies as st

    ints = st.lists(st.integers(-40, 40), min_size=4, max_size=4, unique=True)
    fracs = st.lists(st.builds(Fraction, st.integers(-40, 40), st.integers(1, 6)),
                     min_size=4, max_size=4, unique=True)
    return st.one_of(ints, fracs).map(lambda vals: dict(zip(_VARS, vals)))


def test_evaluate_terms_at_matches_naive_sum():
    from hypothesis import given, settings

    from foamlib.sylfoam import evaluate_terms_at

    @settings(max_examples=200, deadline=None)
    @given(_term_sets(), _points())
    def check(terms, point):
        got = evaluate_terms_at(terms, point)
        assert got == _naive_value(terms, point)
        assert got == evaluate_terms_at(iter(terms), point)

    check()
