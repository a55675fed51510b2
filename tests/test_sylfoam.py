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
    sylvester_side,
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


def _sylvester_cases():
    for m in range(1, 4):
        for n in range(1, 4):
            for p in range(m + 1):
                for q in range(n + 1):
                    yield m, n, p, q
    for p in range(3):
        for q in range(3):
            yield 4, 4, p, q


def test_syl_by_divided_differences_is_the_flat_sum():
    for m, n, p, q in _sylvester_cases():
        A, B = alphabet("A", m), alphabet("B", n)
        flat = fraction_free_sum(sylvester_side(A, B, p, q)(), [A.variables, B.variables])
        assert sylvester_double_sum(A, B, p, q) == flat, (m, n, p, q)


# sha256 of sylvester_double_sum(A4, B4, p, q).render(): the longest
# divided-difference chains short of Syl_{4,4}^{4,4}, pinned to the text
# that the synthetic division of f - s f by (u - v) gave step by step
_SYL_4_4_RENDER_DIGESTS = {
    (4, 3): "fb5a49fb27e9439099877f81c723a18ed1d86e4c2dee96fb4cb17f9acd9dffe6",
    (3, 4): "0ae87d6962a0bad9efaea1aab49ab16b6a36e6b5af22d1a013ff8e9109c031cf",
    (3, 3): "6fefbfe1e1991bb9591e303b4940d1f2cb0c294ba75d5b1ca190078aa8dd2813",
}


@pytest.mark.parametrize("p, q", sorted(_SYL_4_4_RENDER_DIGESTS))
def test_sylvester_renders_at_m_n_4_are_pinned(p, q):
    import hashlib

    render = sylvester_double_sum(alphabet("A", 4), alphabet("B", 4), p, q).render()
    assert hashlib.sha256(render.encode()).hexdigest() == _SYL_4_4_RENDER_DIGESTS[p, q]


def test_syl_base_without_one_r_factor_is_refused():
    # dropping (a1 - b1) from R(Ap, Bp) breaks the symmetry in a1, a2
    from foamlib.sylfoam import CosetSum

    A, B = alphabet("A", 3), alphabet("B", 3)
    splits = ((A.variables, (2, 1)), (B.variables, (2, 1)))
    rest = (((0, 1), (1, 1)), (("x",), (0, 0)), (("x",), (1, 0)))
    # R(Ap, Bp) written out on the base's own names, which the cosets move
    whole = tuple(((a,), (b,)) for a in A.variables[:2] for b in B.variables[:2])
    assert CosetSum(whole + rest, (), splits).symbolic() == sylvester_double_sum(A, B, 2, 2)
    with pytest.raises(FoamValueError, match="not symmetric"):
        CosetSum(whole[1:] + rest, (), splits).symbolic()
    # the term walker moves blocks only, so it refuses such names
    with pytest.raises(FoamValueError, match="outside the split alphabets"):
        list(CosetSum(whole + rest, (), splits).terms())


def _coset_terms(lin, dots, splits):
    """The flat orbit sum that `CosetSum.symbolic` computes, as Terms: the
    base factors `lin` and polynomials `dots` moved by every ordered set
    partition of each split alphabet, over prod_{i<j} R(B_i, B_j)."""
    import itertools

    from foamlib.sylfoam import Term

    choices = []
    for vs, sizes in splits:
        ends = list(itertools.accumulate(sizes, initial=0))
        options = []
        for perm in itertools.permutations(vs):
            blocks = [perm[a:b] for a, b in zip(ends, ends[1:])]
            if all(list(b) == sorted(b, key=vs.index) for b in blocks):
                den = [(u, w) for i, bi in enumerate(blocks) for bj in blocks[i + 1:]
                       for u in bi for w in bj]
                options.append((dict(zip(vs, perm)), den))
        choices.append(options)
    for combo in itertools.product(*choices):
        sigma = {u: w for image, _ in combo for u, w in image.items()}
        yield Term(tuple(p.subs_vars(sigma) for p in dots),
                   tuple((sigma.get(u, u), sigma.get(v, v)) for u, v in lin),
                   tuple(f for _, den in combo for f in den))


def test_symmetrized_sum_is_the_coset_sum():
    # a random factor multiset made symmetric in each block by adding the
    # images of its factors under the block permutations, maybe with a
    # symmetric dot on a block of two, summed by nested divided differences
    import itertools

    from hypothesis import given, settings
    from hypothesis import strategies as st

    from foamlib.sylfoam import CosetSum

    layouts = [[(("a1", "a2", "a3"), (1, 2))], [(("a1", "a2", "a3", "a4"), (2, 2))],
               [(("a1", "a2"), (1, 1)), (("b1", "b2", "b3"), (2, 1))],
               [(("a1", "a2", "a3"), (0, 3)), (("b1", "b2"), (1, 1))],
               [(("a1", "a2", "a3"), (1, 1, 1))],
               [(("a1", "a2", "a3", "a4"), (1, 2, 1))],
               [(("a1", "a2", "a3", "a4"), (2, 0, 2))]]
    dots = [esym(slots(2), 1), esym(slots(2), 2), parse_poly("s1^2 + s2^2 + 3"),
            parse_poly("s1*s2 - 2*s1 - 2*s2")]

    def blocks(vs, sizes):
        ends = list(itertools.accumulate(sizes, initial=0))
        return [vs[a:b] for a, b in zip(ends, ends[1:])]

    def block_images(splits):
        per_split = [[dict(zip(vs, itertools.chain(*images)))
                      for images in itertools.product(
                          *[itertools.permutations(b) for b in blocks(vs, sizes)])]
                     for vs, sizes in splits]
        return [{u: w for part in combo for u, w in part.items()}
                for combo in itertools.product(*per_split)]

    @st.composite
    def cases(draw):
        splits = draw(st.sampled_from(layouts))
        names = [v for vs, _ in splits for v in vs] + ["x"]
        pair = st.tuples(st.sampled_from(names), st.sampled_from(names)).filter(
            lambda uv: uv[0] != uv[1])
        seeds = draw(st.lists(pair, min_size=1, max_size=2))
        lin = sorted({(sigma.get(u, u), sigma.get(v, v))
                      for u, v in seeds for sigma in block_images(splits)})
        pairs = [(s, i) for s, (vs, sizes) in enumerate(splits)
                 for i, k in enumerate(sizes) if k == 2]
        dot = draw(st.sampled_from([None] + dots)) if pairs else None
        return lin, ((dot, draw(st.sampled_from(pairs))),) if dot else (), splits

    @settings(max_examples=60, deadline=None)
    @given(cases())
    def check(case):
        lin, dot_blocks, splits = case
        on_base = [dot.subs_vars(dict(zip(slots(2), blocks(*splits[s])[i])))
                   for dot, (s, i) in dot_blocks]
        want = fraction_free_sum(_coset_terms(lin, on_base, splits), [vs for vs, _ in splits])
        rprods = tuple(((u,), (v,)) for u, v in lin)
        assert CosetSum(rprods, dot_blocks, splits).symbolic() == want

    check()


def _closed_sides():
    """Every closed side with m, n <= 3 (|E| <= 3 for DKSV), some with
    m = n = 4, and the Exchange sides with one X-variable too many."""
    for m, n, p, q in _sylvester_cases():
        yield sylvester_side(alphabet("A", m), alphabet("B", n), p, q)
    for m, n, d in [(m, n, d) for m in range(4) for n in range(4)
                    for d in range(min(m, n) + 1)] + [(4, 4, 0), (4, 4, 3), (4, 4, 4)]:
        A, B = alphabet("A", m), alphabet("B", n)
        for extra in (0, 1):
            yield from exchange_sides_terms(A, B, alphabet("X", m + n - 2 * d + extra), d)
    for m in range(1, 5):
        for d in range(1, m + 1):
            A, X = alphabet("A", m), alphabet("X", m - d)
            yield chen_louck_sides(A, X, d, esym(slots(m - d), m - d))[1]
            if m - d == 1 and d >= 2:  # Lagrange interpolation of a quadratic
                yield chen_louck_sides(A, X, d, parse_poly("s1^2 + 3"))[1]
    for m, n, d, sx, se in [(m, n, d, sx, se) for se in range(4) for m in range(se + 1)
                            for n in range(se + 1) for d in range(m + 1)
                            for sx in range(se + 1)
                            if se >= max(sx + d, m + n - d, m)] + [(3, 2, 2, 1, 5),
                                                                   (2, 2, 1, 2, 4)]:
        yield from dksv_sides(alphabet("A", m), alphabet("B", n), alphabet("X", sx),
                              alphabet("E", se), d)


def test_closed_sides_by_divided_differences_are_their_flat_sums():
    count = 0
    for side in _closed_sides():
        assert side.symbolic() == fraction_free_sum(side(), side.alphabets), side
        count += 1
    assert count > 400


def test_coset_sum_refuses_bad_splits():
    from foamlib.sylfoam import CosetSum

    for sizes in [(3, -1), (1, 2), (2,)]:
        with pytest.raises(FoamValueError, match="no split"):
            CosetSum((), (), ((("a1", "a2"), sizes),))
    with pytest.raises(FoamValueError, match="slot variables"):
        CosetSum((), ((parse_poly("s3"), (0, 0)),), ((("a1", "a2"), (1, 1)),))


def test_dksv_base_broken_in_e3_is_refused():
    # R(A, E3) with E3 = (e3, e4) cut down to R(A, e3)
    from foamlib.sylfoam import CosetSum

    A, B, X, E = alphabet("A", 2), alphabet("B", 1), alphabet("X", 1), alphabet("E", 4)
    _, rhs = dksv_sides(A, B, X, E, 1)
    rest = (((0, 1), B.variables), (X.variables, (0, 0)))
    splits = ((E.variables, (1, 1, 2)),)
    assert CosetSum(((A.variables, ("e3", "e4")),) + rest, (), splits).symbolic() \
        == rhs.symbolic()
    with pytest.raises(FoamValueError, match="not symmetric in e3 and e4"):
        CosetSum(((A.variables, ("e3",)),) + rest, (), splits).symbolic()


def test_chen_louck_base_with_a_non_symmetric_dot_is_refused():
    from foamlib.sylfoam import CosetSum

    A, X = alphabet("A", 3), alphabet("X", 2)
    for dot, ok in [(parse_poly("s1 + s2"), True), (parse_poly("s1 - s2"), False),
                    (parse_poly("s1*s1 + s2"), False)]:
        side = CosetSum(((X.variables, (0, 1)),), ((dot, (0, 0)),),
                        ((A.variables, (2, 1)),))
        if ok:
            assert side.symbolic() == dot.subs_vars({"s1": "x1", "s2": "x2"})
        else:
            with pytest.raises(FoamValueError, match="not symmetric in a1 and a2"):
                side.symbolic()


def test_exchange_with_one_x_too_many_is_refuted_symbolically():
    for m, n, d in [(2, 2, 1), (3, 3, 1), (3, 3, 2), (4, 4, 2)]:
        A, B = alphabet("A", m), alphabet("B", n)
        lhs, rhs = exchange_sides_terms(A, B, alphabet("X", m + n - 2 * d + 1), d)
        assert lhs.symbolic() != rhs.symbolic()


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
    for m, n, p, q in [(2, 2, 1, 1), (3, 2, 2, 0), (3, 3, 1, 2)]:
        A, B = alphabet("A", m), alphabet("B", n)
        deltas = [A.variables, B.variables]
        terms = list(sylvester_side(A, B, p, q)())
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
    from foamlib.exactalg.multipoly import _dense_divexact_linear, packed_layout

    layout = packed_layout(["u", "v"], 3)
    u, v = MultiPoly.var("u"), MultiPoly.var("v")
    exact = ((u - v) * (u * u + v)).packed_on(layout)
    assert _dense_divexact_linear(exact, layout, "u", "v") == (u * u + v).packed_on(layout)
    with pytest.raises(ArithmeticError):
        _dense_divexact_linear((u * u + v).packed_on(layout), layout, "u", "v")


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


# ------------------------------------------ dense kernels on packed dicts

_PACKED_NAMES = ("a", "b", "c")


def _monomials(exponents):
    """Monomials over a, b, c with exponents drawn from `exponents`."""
    from hypothesis import strategies as st

    return st.tuples(*[st.sampled_from(exponents)] * 3).map(
        lambda es: tuple((nm, e) for nm, e in zip(_PACKED_NAMES, es) if e))


def _coefficients():
    from fractions import Fraction

    from hypothesis import strategies as st

    return st.one_of(st.integers(-3, 3),
                     st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3)))


def _packed_polys(exponents=range(4)):
    """MultiPolys over a, b, c, at most 10 terms."""
    from hypothesis import strategies as st

    return st.dictionaries(_monomials(exponents), _coefficients(), max_size=10).map(MultiPoly)


def _linear_factors():
    from hypothesis import strategies as st

    return st.permutations(_PACKED_NAMES).map(lambda p: (p[0], p[1]))


def test_dense_mul_linear_is_multiplication_by_u_minus_v():
    from hypothesis import given, settings

    from foamlib.exactalg.multipoly import _dense_mul_linear, packed_layout

    layout = packed_layout(_PACKED_NAMES, 10)

    @settings(max_examples=150, deadline=None)
    @given(_packed_polys(), _linear_factors())
    def check(f, uv):
        u, v = uv
        got = _dense_mul_linear(f.packed_on(layout), layout, u, v)
        factor = MultiPoly.var(u) - MultiPoly.var(v)
        assert MultiPoly.from_packed(layout, got) == f * factor
        assert all(got.values())

    check()
    # (a + b)(a - b) = a^2 - b^2: the cancelled ab is dropped, not kept as 0
    a, b = MultiPoly.var("a"), MultiPoly.var("b")
    assert (_dense_mul_linear((a + b).packed_on(layout), layout, "a", "b")
            == (a * a - b * b).packed_on(layout))


def test_dense_divexact_linear_inverts_it_and_refuses_a_remainder():
    from hypothesis import given, settings
    from hypothesis import strategies as st

    from foamlib.exactalg.multipoly import (_dense_divexact_linear, _dense_mul_linear,
                                            packed_layout)

    layout = packed_layout(_PACKED_NAMES, 10)
    mono = _monomials(range(4))

    @settings(max_examples=150, deadline=None)
    @given(_packed_polys(), _linear_factors(), st.lists(mono, max_size=4),
           mono, st.integers(-3, 3).filter(bool))
    def check(f, uv, zero_monos, stray, delta):
        product = _dense_mul_linear(f.packed_on(layout), layout, *uv)
        for m in zero_monos:
            product.setdefault(layout.key(m), 0)
        quot = _dense_divexact_linear(product, layout, *uv)
        assert MultiPoly.from_packed(layout, quot) == f
        assert all(quot.values())
        # a stray monomial makes a remainder, here beside zero entries
        bad = dict(product)
        k = layout.key(stray)
        bad[k] = bad.get(k, 0) + delta
        for w in uv:
            bad.setdefault(layout.key(stray + ((w, 1),)), 0)
        with pytest.raises(ArithmeticError):
            _dense_divexact_linear(bad, layout, *uv)

    check()


def _swapped(poly, u, v):
    return poly.subs_vars({u: v, v: u})


def test_dense_divided_difference_times_u_minus_v_is_f_minus_swapped_f():
    from hypothesis import given, settings

    from foamlib.exactalg.multipoly import _dense_divided_difference, packed_layout

    layout = packed_layout(_PACKED_NAMES, 9)

    @settings(max_examples=150, deadline=None)
    @given(_packed_polys(), _linear_factors())
    def check(f, uv):
        u, v = uv
        got = _dense_divided_difference(f.packed_on(layout), layout, u, v)
        assert MultiPoly.from_packed(layout, got) * (MultiPoly.var(u) - MultiPoly.var(v)) \
            == f - _swapped(f, u, v)
        assert all(got.values())

    check()
    # (a^2 - b^2) / (a - b) = a + b, over (b - a) it is -(a + b), and a^2
    # is symmetric in b and c
    a, b = MultiPoly.var("a"), MultiPoly.var("b")
    square = (a * a).packed_on(layout)
    assert _dense_divided_difference(square, layout, "a", "b") == (a + b).packed_on(layout)
    assert _dense_divided_difference(square, layout, "b", "a") == (-a - b).packed_on(layout)
    assert _dense_divided_difference(square, layout, "b", "c") == {}


def test_dense_divided_difference_of_a_symmetric_f_is_zero():
    from hypothesis import given, settings

    from foamlib.exactalg.multipoly import _dense_divided_difference, packed_layout

    layout = packed_layout(_PACKED_NAMES, 9)

    @settings(max_examples=150, deadline=None)
    @given(_packed_polys(), _linear_factors())
    def check(f, uv):
        u, v = uv
        symmetric = (f + _swapped(f, u, v)).packed_on(layout)
        assert _dense_divided_difference(symmetric, layout, u, v) == {}

    check()


@pytest.mark.parametrize("degree, width, exponents", [
    (12, 4, (0, 1, 2, 4)), (200, 8, (0, 1, 3, 60)), (40000, 16, (0, 1, 2, 259, 300))])
def test_dense_divided_difference_is_the_division_of_f_minus_swapped_f(degree, width,
                                                                       exponents):
    # the one-pass monomial formula against the division route: the exact
    # synthetic division of f - s f by (u - v), on words of 4, 8 and 16
    # bits, with exponents beyond a byte and gaps a - b well above 1
    from hypothesis import given, settings
    from hypothesis import strategies as st

    from foamlib.exactalg.multipoly import (_dense_divexact_linear,
                                            _dense_divided_difference, packed_layout)

    layout = packed_layout(_PACKED_NAMES, degree)
    assert layout.width == width

    @settings(max_examples=60, deadline=None)
    @given(_packed_polys(exponents), _linear_factors(), st.booleans())
    def check(f, uv, symmetrize):
        u, v = uv
        if symmetrize:  # f - s f is then empty
            f = f + _swapped(f, u, v)
        got = _dense_divided_difference(f.packed_on(layout), layout, u, v)
        diff = (f - _swapped(f, u, v)).packed_on(layout)
        assert got == _dense_divexact_linear(diff, layout, u, v)
        assert all(got.values())
        assert bool(got) == bool(diff)

    check()


@pytest.mark.parametrize("width, exponents", [(4, range(4)), (10, (0, 1, 2, 259))])
def test_from_dense_is_the_term_by_term_poly(width, exponents):
    # a packed sum is wrapped as it is, with no decode: it reads back,
    # through the terms view, as the polynomial of its monomials
    from hypothesis import given, settings
    from hypothesis import strategies as st

    from foamlib.exactalg.multipoly import packed_layout

    layout = packed_layout(_PACKED_NAMES, 3 * max(exponents))
    assert layout.width == width

    @settings(max_examples=100, deadline=None)
    @given(st.dictionaries(_monomials(exponents), _coefficients().filter(bool), max_size=10))
    def check(terms):
        got = MultiPoly.from_packed(layout, {layout.key(m): c for m, c in terms.items()})
        want = MultiPoly(terms)
        assert got == want and hash(got) == hash(want)
        # key order kept, coefficient types kept
        assert list(got.terms.items()) == list(terms.items())
        assert [type(c) for c in got.terms.values()] == [type(c) for c in terms.values()]

    check()


def test_from_dense_reads_an_exponent_beyond_a_byte():
    from foamlib.exactalg.multipoly import packed_layout

    layout = packed_layout(["a", "b"], 259)
    got = MultiPoly.from_packed(layout, {layout.key((("b", 259),)): 2})
    assert layout.width == 9
    assert got.terms == {(("b", 259),): 2}
    assert got.render() == "2*b^259"
    assert (got.degree_in("b"), got.degree_in("a"), got.variables()) == (259, 0, {"b"})
    # 518 crosses the 9-bit word: the square re-packs to 10 bits, no wrap
    square = got * got
    assert square.layout.width == 10
    assert square.terms == {(("b", 518),): 4} and square.degree_in("a") == 0


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


def _dksv_sizes(top):
    """Every valid (m, n, d, |X|, |E|) with |E| <= top."""
    return [(m, n, d, sx, se) for se in range(top + 1) for m in range(se + 1)
            for n in range(se + 1) for d in range(m + 1) for sx in range(se + 1)
            if se >= max(sx + d, m + n - d, m)]


def test_grid_at_the_certified_degree_agrees_with_symbolic():
    from foamlib.sylfoam import _check_identity

    verdicts = set()
    for m in range(5):
        for n in range(5):
            A, B = alphabet("A", m), alphabet("B", n)
            for d in range(min(m, n) + 1):
                # one X too many is refuted at some sizes (symbolic is slow
                # there past m + n = 6)
                for size_x in range(m + n - 2 * d, m + n - 2 * d + 1 + (m + n <= 6)):
                    sides = exchange_sides_terms(A, B, alphabet("X", size_x), d)
                    assert all(side.certified_degree() is not None for side in sides)
                    verdict = _check_identity(*sides, "symbolic")
                    assert _check_identity(*sides, "grid") == verdict, (m, n, d, size_x)
                    verdicts.add(verdict)
    assert verdicts == {True, False}
    sizes = _dksv_sizes(4)
    assert len(sizes) > 100
    for m, n, d, sx, se in sizes:
        assert verify_dksv(m, n, d, sx, se, "grid") == \
            verify_dksv(m, n, d, sx, se, "symbolic")
    for m in range(5):
        for d in range(m + 1):
            k = m - d
            fs = [MultiPoly.one()] + [None] * (d > 0)  # e_k has degree 1 in each
            if k and d >= 2:  # degree 2 in each variable
                fs.append(esym(slots(k), k) * esym(slots(k), 1))
            for f in fs:
                assert verify_chen_louck(m, d, f, "grid") == \
                    verify_chen_louck(m, d, f, "symbolic"), (m, d, f)


def test_grid_at_the_certified_degree_refutes_mutated_terms():
    # the first left term dropped, or its first lin or den factor reversed
    from dataclasses import replace

    from foamlib.sylfoam import _grid_agrees

    def flip(factors):
        (u, v), *rest = factors
        return ((v, u), *rest)

    mutants = 0
    for m in range(6):
        for n in range(6):
            A, B = alphabet("A", m), alphabet("B", n)
            for d in range(min(m, n) + 1):
                lhs, rhs = exchange_sides_terms(A, B, alphabet("X", m + n - 2 * d), d)
                degree = max(0, lhs.certified_degree(), rhs.certified_degree())
                first, *rest = lhs.terms()
                variants = [rest]
                if first.lin:
                    variants.append([replace(first, lin=flip(first.lin))] + rest)
                if first.den:
                    variants.append([replace(first, den=flip(first.den))] + rest)
                for terms in variants:
                    mutants += 1
                    assert not _grid_agrees(terms, rhs.terms(),
                                            lhs.alphabets + rhs.alphabets, degree), \
                        (m, n, d, terms)
    assert mutants == 206


# ------------------------------------------------------------ grid mode

def test_grid_refutes_identity_that_agrees_at_base_point():
    # (a2 - a1)^2 and (a3 - a1)(a2 - a1)/2 agree whenever a3 - a2 = a2 - a1,
    # which held at every point of a line moving all variables alike
    from fractions import Fraction

    from foamlib.sylfoam import Term, _grid_agrees

    def lhs():
        yield Term((), (("a2", "a1"), ("a2", "a1")), ())

    def rhs():
        yield Term((MultiPoly.const(Fraction(1, 2)),),
                   (("a3", "a1"), ("a2", "a1")), ())

    assert not _grid_agrees(lhs(), rhs(), [])
    assert _grid_agrees(lhs(), lhs(), [])


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


def test_grid_point_count_is_certified_degree_plus_one(monkeypatch):
    from foamlib.sylfoam import cleared_degree

    counts = _grid_point_counts(monkeypatch)
    # Exchange m = n = 3: both sides of degree mn - d^2 (the cleared degree
    # adds deg V(A)V(B) = 6)
    assert all(e["ok"] for e in verify_exchange(3, 3, "grid"))
    assert counts == [10, 9, 6, 1]
    # DKSV m = n = 2, d = 1, |X| = 1, |E| = 4: both sides of degree 2
    # (cleared: deg V(A)V(E) = 7 more)
    A, B, X, E = (alphabet("A", 2), alphabet("B", 2), alphabet("X", 1),
                  alphabet("E", 4))
    lt, rt = dksv_sides(A, B, X, E, 1)
    deltas = [A.variables, E.variables]
    assert cleared_degree(list(lt()) + list(rt()), deltas) == 9
    assert (lt.certified_degree(), rt.certified_degree()) == (2, 2)
    counts.clear()
    assert verify_dksv(2, 2, 1, 1, 4, "grid")["ok"]
    assert counts == [3]
    # Chen-Louck m = 5, d = 2: e_3 of degree 3 on both sides (cleared:
    # deg V(A) = 10 more)
    counts.clear()
    assert verify_chen_louck(5, 2, mode="grid")["ok"]
    assert counts == [4]


def test_grid_keeps_the_cleared_count_without_a_certificate(monkeypatch):
    from foamlib import sylfoam
    from foamlib.sylfoam import (CosetSum, Term, _check_identity, cleared_degree,
                                 overlap_matches_polynomial, overlap_terms)

    counts = _grid_point_counts(monkeypatch)
    # overlap terms are no coset sum: the independent route stays V-cleared
    A, B = alphabet("A", 3), alphabet("B", 2)
    diagram = diagram_sylvester(A, B, 1, 1)
    side = sylvester_side(A, B, 1, 1)
    assert overlap_matches_polynomial(diagram, side)
    cleared = cleared_degree(list(overlap_terms(diagram)) + list(side()),
                             [A.variables, B.variables])
    assert counts == [cleared + 1] and cleared > side.certified_degree()
    # a base whose dot s1 - s2 is not symmetric in its block
    X = alphabet("X", 2)
    side = CosetSum(((X.variables, (0, 1)),), ((parse_poly("s1 - s2"), (0, 0)),),
                    ((A.variables, (2, 1)),))
    assert side.certified_degree() is None
    # the sum is no polynomial, so the line stops at its first point: read
    # the degree it was given
    degrees = []
    inner = sylfoam.grid_assignments
    monkeypatch.setattr(sylfoam, "grid_assignments",
                        lambda vs, degree: degrees.append(degree) or inner(vs, degree))
    zero = MultiPoly.zero()
    assert not _check_identity(zero, side, "grid")
    assert degrees == [cleared_degree([Term((zero,), (), ())] + list(side()),
                                      [A.variables])] == [4]
    with pytest.raises(FoamValueError, match="not symmetric in a1 and a2"):
        side.symbolic()


def test_a_side_of_negative_certified_degree_is_checked_at_one_point(monkeypatch):
    # 1/(a1 - a2) + 1/(a2 - a1): no swap to certify, degree 0 - 1 = -1
    from foamlib.sylfoam import CosetSum, _check_identity

    side = CosetSum((), (), ((("a1", "a2"), (1, 1)),))
    assert side.certified_degree() == -1
    assert side.symbolic() == MultiPoly.zero()
    counts = _grid_point_counts(monkeypatch)
    assert _check_identity(side, side, "grid")
    assert counts == [1]
    assert _check_identity(MultiPoly.zero(), side, "grid")
    assert not _check_identity(MultiPoly.one(), side, "grid")
    assert counts == [1, 1, 1]


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
