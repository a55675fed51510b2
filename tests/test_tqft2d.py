import hashlib
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from foamlib.exactalg import parse_unipoly
from foamlib.exactalg.scalars import QQ_DOMAIN
from foamlib.fieldext import (
    FiniteFieldTower,
    make_backend,
    nilpotent_square_algebra,
    scaling_automorphism,
)
from foamlib.mftrace import JacobiAlgebra, as_frobenius_backend
from foamlib.surfgen import random_surface, random_surface_with_pattern
from foamlib.tqft2d import (
    _cut,
    _fold,
    _state_sum,
    REWRITE_RELATIONS,
    DecoratedSurface,
    Facet,
    Seam,
    SurfaceError,
    disjoint_union,
    evaluate_coloring,
    evaluate_neck,
    genus2_three_defects,
    plain_torus,
    seamed_sphere,
    skein_rewrite,
    skein_rewrite_check,
    sphere_with_defect,
    surface_from_json,
    torus_with_defect,
    validate,
)


TOWER3 = FiniteFieldTower(3, [1, 2, 4])
TOWER2 = FiniteFieldTower(2, [1, 2])
QUARTIC = FiniteFieldTower(3, [1, 4])
CUBIC = make_backend({"kind": "numberfield", "f": "x^3-3*x+1",
                      "roots": ["x", "x^2-2", "-x^2-x+2"]})
NILPOTENT = nilpotent_square_algebra()
# the backend `foamlib mf backend --f x^2-2` emits
JACOBI_SQRT2 = as_frobenius_backend(JacobiAlgebra(parse_unipoly("x^2-2", QQ_DOMAIN)))


# ------------------------------------------------------------------- validate

def test_validate_plain_torus():
    s = plain_torus(TOWER2, 1)
    rep = validate(s)
    assert rep["ok"] and rep["euler_characteristics"] == [0]


def test_validate_cut_torus():
    s = torus_with_defect(TOWER2, 1, TOWER2.frobenius_automorphism(1, 1))
    rep = validate(s)
    assert rep["ok"] and rep["euler_characteristics"] == [0]


def test_validate_rejects_label_mismatch():
    f1 = Facet("a", 0, 1, (), ("c",))
    f2 = Facet("b", 0, 1, (), ("c",))
    seam = Seam("inclusion", ("a", "c"), ("b", "c"))
    rep = validate(DecoratedSurface(TOWER3, (f1, f2), (seam,)))
    assert not rep["ok"]


def test_validate_rejects_dangling_circle():
    f = Facet("a", 0, 1, (), ("c",))
    rep = validate(DecoratedSurface(TOWER3, (f,), ()))
    assert not rep["ok"]


# ------------------------------------------------------- paper-pinned values

def test_torus_sigma_table_16_thirds():
    alg = nilpotent_square_algebra()
    sig = scaling_automorphism(alg, 3)
    val = evaluate_neck(torus_with_defect(alg, 0, sig))
    assert val == Fraction(16, 3)
    # closed form lambda + 2 + 1/lambda at a second value
    sig7 = scaling_automorphism(alg, Fraction(7))
    assert evaluate_neck(torus_with_defect(alg, 0, sig7)) == \
        Fraction(7) + 2 + Fraction(1, 7)


def test_undecorated_torus_gf4():
    assert evaluate_neck(plain_torus(TOWER2, 1)) == TOWER2.zero(0)


def test_seamed_sphere_tower3():
    # tr_F/k(tr_K/F(1)) = 2*2 = 1 mod 3
    s = seamed_sphere(TOWER3, 1, 2)
    assert evaluate_neck(s) == TOWER3.one(0)
    assert evaluate_coloring(s) == TOWER3.one(0)


def test_seamed_sphere_relative_trace_rule_with_dots():
    rng = random.Random(2)
    for _ in range(10):
        a = TOWER3.random_element(1, rng)
        b = TOWER3.random_element(2, rng)
        s = seamed_sphere(TOWER3, 1, 2, a, b)
        want = TOWER3.trace_to_ground(
            1, TOWER3.mul(1, a, TOWER3.relative_trace(b, 2, 1))
        )
        assert evaluate_neck(s) == want
        assert evaluate_coloring(s) == want


def test_genus2_three_defects_family():
    fr = QUARTIC.frobenius_automorphism(1, 1)
    ident = QUARTIC.frobenius_automorphism(1, 0)
    val = evaluate_neck(genus2_three_defects(QUARTIC, 1, fr, fr, fr))
    assert val == QUARTIC.one(0)  # 4 = 1 mod 3
    val0 = evaluate_neck(genus2_three_defects(QUARTIC, 1, fr, ident, ident))
    assert val0 == QUARTIC.zero(0)


def test_torus_frobenius_fixed_roots():
    # evaluation counts roots fixed by frob^k: n when k = 0 mod n, else 0
    for k in range(4):
        sig = QUARTIC.frobenius_automorphism(1, k)
        t = torus_with_defect(QUARTIC, 1, sig)
        want = QUARTIC.ground.of(4) if k % 4 == 0 else QUARTIC.zero(0)
        assert evaluate_neck(t) == want
        assert evaluate_coloring(t) == want


# ----------------------------------------------------- evaluator cross-check

def test_evaluator_agreement_random():
    rng = random.Random(42)
    for _ in range(60):
        s = random_surface(TOWER3, rng)
        assert evaluate_neck(s) == evaluate_coloring(s)


def test_evaluator_agreement_torus_family():
    rng = random.Random(7)
    for level in (1, 2):
        for _ in range(10):
            s = random_surface(TOWER3, rng, max_facets=3, max_seams=4,
                               levels=[0, level])
            assert evaluate_neck(s) == evaluate_coloring(s)


def test_evaluator_agreement_nonprime_ground():
    # towers whose ground field is itself an extension: GF(4) < GF(16)
    tower = FiniteFieldTower(2, [2, 4])
    rng = random.Random(5)
    for _ in range(15):
        s = random_surface(tower, rng)
        assert evaluate_neck(s) == evaluate_coloring(s)
    tower9 = FiniteFieldTower(3, [2, 4])
    for _ in range(10):
        s = random_surface(tower9, rng)
        assert evaluate_neck(s) == evaluate_coloring(s)


@given(seed=st.integers(0, 2**32 - 1))
@example(seed=3)
@settings(max_examples=10, deadline=None)
def test_evaluator_agreement_number_field(seed):
    from foamlib.fieldext import make_backend

    nf = make_backend({"kind": "numberfield", "f": "x^2-2",
                       "roots": ["x", "-x"]})
    conj = nf.automorphism_by_root(1)
    ident = nf.identity_automorphism(1)
    # trace of conjugation on the quadratic field is 0; of identity, 2
    t_conj = torus_with_defect(nf, 1, conj)
    t_id = torus_with_defect(nf, 1, ident)
    assert evaluate_neck(t_conj) == evaluate_coloring(t_conj) == 0
    assert evaluate_neck(t_id) == evaluate_coloring(t_id) == 2
    rng = random.Random(seed)
    for _ in range(15):
        s = random_surface(nf, rng, max_facets=4, max_seams=4)
        assert evaluate_neck(s) == evaluate_coloring(s)
    # the cyclic cubic: its Galois group is generated by x -> x^2 - 2
    for idx in range(3):
        sig = CUBIC.automorphism_by_root(idx)
        t = torus_with_defect(CUBIC, 1, sig)
        want = 3 if sig.is_identity() else 0
        assert evaluate_neck(t) == evaluate_coloring(t) == want
    for _ in range(10):
        s = random_surface(CUBIC, rng, max_facets=4, max_seams=4)
        assert evaluate_neck(s) == evaluate_coloring(s)


def test_evaluator_agreement_biquadratic():
    from foamlib.fieldext import make_backend

    bi = make_backend({"kind": "numberfield", "f": "x^4+1",
                       "roots": ["x", "x^3", "-x", "-x^3"]})
    rng = random.Random(11)
    for idx in range(4):
        sig = bi.automorphism_by_root(idx)
        t = torus_with_defect(bi, 1, sig)
        want = 4 if sig.is_identity() else 0
        assert evaluate_neck(t) == evaluate_coloring(t) == want
    for _ in range(10):
        s = random_surface(bi, rng, max_facets=3, max_seams=3)
        assert evaluate_neck(s) == evaluate_coloring(s)


# --------------------------------------------------------- invariants

@given(seed=st.integers(0, 2**32 - 1))
@example(seed=5)
@settings(max_examples=6, deadline=None)
def test_dual_basis_independence(seed):
    for be in (TOWER3, NILPOTENT, JACOBI_SQRT2):
        rng = random.Random(seed)
        for _ in range(10):
            s = random_surface(be, rng, max_facets=3, max_seams=4)
            pairs = {
                lv: be.randomized_dual_pair(lv, rng)
                for lv in range(be.num_levels)
            }
            assert evaluate_neck(s) == evaluate_neck(s, dual_pairs=pairs)


def test_defect_composition():
    # two parallel circles sigma1, sigma2 equal one circle sigma1 then sigma2
    rng = random.Random(9)
    be = TOWER3
    s1 = be.frobenius_automorphism(2, 1)
    s2 = be.frobenius_automorphism(2, 3)
    for _ in range(5):
        x = be.random_element(2, rng)
        y = be.random_element(2, rng)
        # sphere: src disk (dot x) | sigma1 | middle annulus | sigma2 | tgt disk (dot y)
        f1 = Facet("d1", 0, 2, (x,), ("a",))
        f2 = Facet("mid", 0, 2, (), ("b1", "b2"))
        f3 = Facet("d2", 0, 2, (y,), ("c",))
        two = DecoratedSurface(be, (f1, f2, f3), (
            Seam("defect", ("d1", "a"), ("mid", "b1"), s1),
            Seam("defect", ("mid", "b2"), ("d2", "c"), s2),
        ))
        one = sphere_with_defect(be, 2, s1.compose(s2), x, y)
        assert evaluate_neck(two) == evaluate_neck(one)
        assert evaluate_coloring(two) == evaluate_coloring(one)


def test_defect_composition_noncommutative_table():
    # scaling and swap automorphisms of k[a,b]/(a^2,b^2) do not commute
    alg = nilpotent_square_algebra()
    scale = scaling_automorphism(alg, 5)
    swap = alg.matrix_automorphism(
        [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]]
    )
    assert scale.compose(swap).action != swap.compose(scale).action
    x = alg.parse_element(0, "1 + 2*a")
    y = alg.parse_element(0, "b + ab")
    f1 = Facet("d1", 0, 0, (x,), ("a",))
    f2 = Facet("mid", 0, 0, (), ("b1", "b2"))
    f3 = Facet("d2", 0, 0, (y,), ("c",))
    for first, second in [(scale, swap), (swap, scale)]:
        two = DecoratedSurface(alg, (f1, f2, f3), (
            Seam("defect", ("d1", "a"), ("mid", "b1"), first),
            Seam("defect", ("mid", "b2"), ("d2", "c"), second),
        ))
        # a chain crossed first-then-second merges to first.compose(second)
        one = DecoratedSurface(alg, (f1, f3), (
            Seam("defect", ("d1", "a"), ("d2", "c"), first.compose(second)),
        ))
        assert evaluate_neck(two) == evaluate_neck(one)


def test_coorientation_flip():
    # swapping source/target while inverting sigma preserves the value
    rng = random.Random(13)
    be = TOWER3
    sig = be.frobenius_automorphism(2, 1)
    for _ in range(5):
        x = be.random_element(2, rng)
        y = be.random_element(2, rng)
        s_fwd = DecoratedSurface(be, (
            Facet("p", 0, 2, (x,), ("a",)), Facet("q", 0, 2, (y,), ("b",))
        ), (Seam("defect", ("p", "a"), ("q", "b"), sig),))
        s_rev = DecoratedSurface(be, (
            Facet("p", 0, 2, (x,), ("a",)), Facet("q", 0, 2, (y,), ("b",))
        ), (Seam("defect", ("q", "b"), ("p", "a"), sig.inverse()),))
        assert evaluate_neck(s_fwd) == evaluate_neck(s_rev)


def test_identity_defect_equals_plain():
    rng = random.Random(15)
    be = TOWER3
    ident = be.frobenius_automorphism(2, 0)
    for _ in range(5):
        x = be.random_element(2, rng)
        y = be.random_element(2, rng)
        facets = (Facet("p", 1, 2, (x,), ("a",)), Facet("q", 0, 2, (y,), ("b",)))
        s_def = DecoratedSurface(be, facets,
                                 (Seam("defect", ("p", "a"), ("q", "b"), ident),))
        s_pl = DecoratedSurface(be, facets,
                                (Seam("plain", ("p", "a"), ("q", "b")),))
        assert evaluate_neck(s_def) == evaluate_neck(s_pl)


def test_sphere_defect_two_readings():
    # eps(sigma(y) x) = eps(y sigma^-1(x)) and both equal the evaluation
    rng = random.Random(17)
    be = TOWER2
    sig = be.frobenius_automorphism(1, 1)
    for _ in range(8):
        x = be.random_element(1, rng)
        y = be.random_element(1, rng)
        s = sphere_with_defect(be, 1, sig, x, y)
        v = evaluate_neck(s)
        assert v == be.trace_to_ground(1, be.mul(1, sig(y), x))
        assert v == be.trace_to_ground(1, be.mul(1, y, sig.inverse()(x)))


def test_multiplicative_over_disjoint_union():
    rng = random.Random(19)
    for _ in range(8):
        s1 = random_surface(TOWER3, rng, max_facets=2, max_seams=3)
        s2 = random_surface(TOWER3, rng, max_facets=2, max_seams=3)
        u = disjoint_union(s1, s2)
        g = TOWER3.ground
        assert evaluate_neck(u) == g.mul(evaluate_neck(s1), evaluate_neck(s2))


def test_torus_with_sigma_is_trace_formula():
    # sum_i eps(x_i sigma(y_i)) pins the coorientation convention
    be = TOWER3
    for k in range(4):
        sig = be.frobenius_automorphism(2, k)
        t = torus_with_defect(be, 2, sig)
        pair = be.dual_bases(2)
        g = be.ground
        acc = g.zero
        for x, y in zip(pair.xs, pair.ys):
            acc = g.add(acc, be.trace_to_ground(2, be.mul(2, x, sig(y))))
        assert evaluate_neck(t) == acc


# ------------------------------------------------------------ seam folding

FOLD_BACKENDS = {
    "GF(3)<GF(9)<GF(81)": TOWER3,
    "GF(2)<GF(8)<GF(64)": FiniteFieldTower(2, [1, 3, 6]),
    "GF(4)<GF(16)": FiniteFieldTower(2, [2, 4]),
    "Q(sqrt2)": make_backend({"kind": "numberfield", "f": "x^2-2",
                              "roots": ["x", "-x"]}),
    "cyclic cubic": CUBIC,
    "k[a,b]/(a^2,b^2)": NILPOTENT,
}


def unfolded_state_sum(s, dual_pairs=None):
    """The state sum over every seam multi-index, nothing folded."""
    return _state_sum(*_cut(s, dual_pairs))


def _dots(be, level, rng):
    return tuple(be.random_element(level, rng) for _ in range(rng.randint(0, 2)))


def unfoldable_surface(be, rng):
    """Pairs U_j - V_j at an upper level, each U_j also the upper side of an
    inclusion seam from one lower facet L.

    Every U_j has two circles, so it can only be reached through V_j, and
    L folds into one pair only: the other inclusion seams are left to the
    state sum.
    """
    hi = rng.randrange(1, be.num_levels)
    lo = rng.randrange(hi)
    k = rng.randint(2, 3)
    facets = [Facet("L", 0, lo, _dots(be, lo, rng), tuple(f"l{j}" for j in range(k)))]
    seams = []
    for j in range(k):
        u, v = f"U{j}", f"V{j}"
        facets += [Facet(u, rng.randint(0, 1), hi, _dots(be, hi, rng), ("v", "l")),
                   Facet(v, 0, hi, _dots(be, hi, rng), ("u",))]
        if rng.random() < 0.5:
            seams.append(Seam("plain", (u, "v"), (v, "u")))
        else:
            sigma = (be.frobenius_automorphism(hi, rng.randrange(be.dim(hi)))
                     if isinstance(be, FiniteFieldTower)
                     else be.automorphism_by_root(rng.randrange(len(be.roots))))
            seams.append(Seam("defect", (u, "v"), (v, "u"), sigma))
        seams.append(Seam("inclusion", ("L", f"l{j}"), (u, "l")))
    return DecoratedSurface(be, tuple(facets), tuple(seams))


@pytest.mark.parametrize("name", list(FOLD_BACKENDS))
@given(seed=st.integers(0, 2**32 - 1), override=st.booleans())
@settings(max_examples=20, deadline=None)
def test_folded_neck_equals_state_sum(name, seed, override):
    be = FOLD_BACKENDS[name]
    rng = random.Random(seed)
    surfaces = [random_surface(be, rng, max_seams=4) for _ in range(3)]
    if be.num_levels > 1:
        surfaces.append(unfoldable_surface(be, rng))
    for s in surfaces:
        pairs = ({lv: be.randomized_dual_pair(lv, rng) for lv in range(be.num_levels)}
                 if override else None)
        value = evaluate_neck(s, dual_pairs=pairs)
        assert value == unfolded_state_sum(s, pairs)
        if be is not NILPOTENT:
            assert value == evaluate_coloring(s)


@pytest.mark.parametrize("lower, seed", [(0, 2), (1, 0)])
def test_unfoldable_surface_uses_the_state_sum(lower, seed):
    # U1 - V1 and U2 - V2 plain, L below U1 and U2: U2 is the upper side of
    # an inclusion seam with another circle, so L folds into one pair only
    # and the seam from L to the other pair is summed over; the seeds give
    # nonzero values (a relative trace to GF(3) or GF(9) is often zero)
    be = TOWER3
    rng = random.Random(seed)

    def dot(level):
        return (be.random_element(level, rng),)

    facets = (Facet("U1", 0, 2, dot(2), ("v", "l")), Facet("V1", 0, 2, dot(2), ("u",)),
              Facet("U2", 0, 2, dot(2), ("v", "l")), Facet("V2", 1, 2, dot(2), ("u",)),
              Facet("L", 0, lower, dot(lower), ("l1", "l2")))
    seams = (Seam("plain", ("U1", "v"), ("V1", "u")),
             Seam("plain", ("U2", "v"), ("V2", "u")),
             Seam("inclusion", ("L", "l1"), ("U1", "l")),
             Seam("inclusion", ("L", "l2"), ("U2", "l")))
    s = DecoratedSurface(be, facets, seams)
    # two composites, {U1, V1, L} and {U2, V2}, share the seam L - U2
    assert [len(ends) for _, _, ends in _fold(*_cut(s), s)] == [1, 1]
    value = evaluate_neck(s)
    assert value == unfolded_state_sum(s) == evaluate_coloring(s)
    assert value != be.zero(0)


def test_eight_seams_fold_over_gf_3_8():
    # two facets joined by 8 seams: 8^8 terms unfolded, one composite folded
    be = FiniteFieldTower(3, [1, 8])
    rng = random.Random(29)
    for kind in ("plain", "defect"):
        a, b = be.random_element(1, rng), be.random_element(1, rng)
        sigmas = [be.frobenius_automorphism(1, rng.randrange(8)) for _ in range(8)]
        s = DecoratedSurface(be, (
            Facet("f1", 0, 1, (a,), tuple(f"a{i}" for i in range(8))),
            Facet("f2", 0, 1, (b,), tuple(f"b{i}" for i in range(8))),
        ), tuple(Seam(kind, ("f1", f"a{i}"), ("f2", f"b{i}"),
                      sigmas[i] if kind == "defect" else None) for i in range(8)))
        assert evaluate_neck(s) == evaluate_coloring(s)


# How a piece h crosses a seam into the composite: the seam kind and the
# end h holds (end1 is a defect's target and an inclusion's upper side).
CROSSINGS = [("plain", 0), ("plain", 1), ("defect", 0), ("defect", 1),
             ("inclusion", 0), ("inclusion", 1)]


def _crossing_seam(be, crossing, end_c, end_h, level, rng):
    """The seam that h's circle end_h crosses to end_c, whose facet has the
    given level; returns the seam and h's level."""
    kind, h_end = crossing
    ends = (end_c, end_h) if h_end else (end_h, end_c)
    if kind == "inclusion":
        return Seam(kind, *ends), level + 1 if h_end else level - 1
    sigma = (be.frobenius_automorphism(level, rng.randrange(1, be.dim(level)))
             if kind == "defect" else None)
    return Seam(kind, *ends, sigma), level


@pytest.mark.parametrize("be", [TOWER3, FOLD_BACKENDS["GF(2)<GF(8)<GF(64)"]],
                         ids=["GF(81)", "GF(64)"])
@pytest.mark.parametrize("first", CROSSINGS[2:5])
@pytest.mark.parametrize("second", CROSSINGS)
def test_fold_across_a_carried_end(be, first, second):
    # A <- B through `first`, then C through B's other circle: C crosses
    # `second` and then the map that carried B's circle in, which is sigma,
    # its inverse or an inclusion.  In the triangle, C comes in from A by a
    # plain seam instead, and its circle to B folds against B's carried list.
    rng = random.Random(f"{first}{second}")
    b_level = 1
    values = []
    for _ in range(6):
        seam1, a_level = _crossing_seam(be, (first[0], 1 - first[1]), ("B", "a"),
                                        ("A", "b"), b_level, rng)
        seam2, c_level = _crossing_seam(be, second, ("B", "c"), ("C", "b"),
                                        b_level, rng)
        shapes = [((("A", ("b",), a_level), ("B", ("a", "c"), b_level),
                    ("C", ("b",), c_level)), (seam1, seam2))]
        if c_level == a_level:
            # C with a second circle, to A by a plain seam
            shapes.append(((("A", ("b", "c"), a_level), ("B", ("a", "c"), b_level),
                            ("C", ("b", "a"), c_level)),
                           (seam1, seam2, Seam("plain", ("A", "c"), ("C", "a")))))
        for facets, seams in shapes:
            s = DecoratedSurface(be, tuple(
                Facet(fid, rng.randint(0, 1), level,
                      (be.random_element(level, rng),), circles)
                for fid, circles, level in facets), seams)
            assert [len(ends) for _, _, ends in _fold(*_cut(s), s)] == [0]
            value = evaluate_neck(s)
            assert value == unfolded_state_sum(s) == evaluate_coloring(s)
            values.append(value)
    assert any(v != be.zero(0) for v in values)


SQRT2 = FOLD_BACKENDS["Q(sqrt2)"]


def pinned_corpus():
    """Seeded surfaces on every seam kind: surfgen draws on four backends,
    unfoldable surfaces, and two top-level GF(81) facets joined by 2-6 plain
    or defect seams."""
    rng = random.Random(4817)
    corpus = []
    for be in (TOWER3, SQRT2, CUBIC, NILPOTENT):
        corpus += [random_surface(be, rng, max_seams=4) for _ in range(60)]
        if be.num_levels > 1:
            corpus += [unfoldable_surface(be, rng) for _ in range(8)]
    top = TOWER3.num_levels - 1
    for k in range(2, 7):
        for kind in ("plain", "defect"):
            f1 = Facet("f1", 0, top, (TOWER3.random_element(top, rng),),
                       tuple(f"a{i}" for i in range(k)))
            f2 = Facet("f2", k % 2, top, (TOWER3.random_element(top, rng),),
                       tuple(f"b{i}" for i in range(k)))
            corpus.append(DecoratedSurface(TOWER3, (f1, f2), tuple(
                Seam(kind, ("f1", f"a{i}"), ("f2", f"b{i}"),
                     TOWER3.frobenius_automorphism(top, rng.randrange(1, 4))
                     if kind == "defect" else None)
                for i in range(k))))
    return corpus


# sha256 of the evaluate_neck values of pinned_corpus(), one repr a line, as
# computed with every seam crossed by the contraction of its dual-basis lists
_PINNED_NECK_DIGEST = "64a76288f2dea9241d952d867bd9a0332a5e8be8e5584a1988730010fb5934d5"


def test_neck_values_pinned_over_a_seeded_corpus():
    values = "\n".join(repr(evaluate_neck(s)) for s in pinned_corpus())
    assert hashlib.sha256(values.encode()).hexdigest() == _PINNED_NECK_DIGEST


# ------------------------------------------------------------------ rewrites

@pytest.mark.parametrize("pattern", ["remove_f_disk", "remove_k_disk",
                                     "push_dot", "merge_k_boundaries"])
def test_skein_rewrites_preserve_evaluation(pattern):
    rng = random.Random(pattern)  # a str seed does not move with PYTHONHASHSEED
    for _ in range(12):
        s = random_surface_with_pattern(TOWER3, rng, pattern)
        assert skein_rewrite_check(pattern, s)


def _canonical(s):
    """A surface as one repr: facets, then seams with sigma's level and matrix."""
    facets = [(f.id, f.genus, f.level, f.dots, f.boundary) for f in s.facets]
    seams = [(se.kind, se.end0, se.end1,
              None if se.sigma is None else (se.sigma.level, se.sigma.action))
             for se in s.seams]
    return repr((facets, seams))


def rewrite_corpus():
    """Each relation on seeded pattern draws over two towers, and tried on
    plain surfgen draws, where a refusal is recorded by its text."""
    lines = []
    for k, be in enumerate((TOWER3, FiniteFieldTower(2, [1, 3, 6]))):
        rng = random.Random(f"rewrites:{k}")
        for relation in REWRITE_RELATIONS:
            for _ in range(15):
                s = random_surface_with_pattern(be, rng, relation)
                lines.append(_canonical(skein_rewrite(relation, s)))
        for _ in range(40):
            s = random_surface(be, rng)
            for relation in REWRITE_RELATIONS:
                try:
                    lines.append(_canonical(skein_rewrite(relation, s)))
                except SurfaceError as exc:
                    lines.append(f"{relation}: {exc}")
    return lines


# sha256 of rewrite_corpus(), one line each, as the hand-walked rewrites gave it
_PINNED_REWRITE_DIGEST = "bee8da6e428eadb0dba47a90562fa83cf911d5f650d17a0ceeff092310b8f73a"


def test_skein_rewrite_outputs_pinned():
    lines = rewrite_corpus()
    assert any(": " in line for line in lines)  # some refusals are recorded
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == _PINNED_REWRITE_DIGEST


def test_merge_k_boundaries_renames_a_clashing_circle():
    # fa and fb both have a circle "c", joined by a plain seam: merging fb
    # into fa renames fb's "c" to "c_m", and the plain seam becomes a
    # self-seam of the merged facet
    top, low = 2, 1
    rng = random.Random(23)
    for _ in range(4):
        kf = Facet("kf", rng.randint(0, 1), top, (TOWER3.random_element(top, rng),),
                   ("k1", "k2"))
        fa = Facet("fa", rng.randint(0, 1), low, (TOWER3.random_element(low, rng),),
                   ("f1", "c"))
        fb = Facet("fb", rng.randint(0, 1), low, (TOWER3.random_element(low, rng),),
                   ("f2", "c"))
        s = DecoratedSurface(TOWER3, (kf, fa, fb), (
            Seam("inclusion", ("fa", "f1"), ("kf", "k1")),
            Seam("inclusion", ("fb", "f2"), ("kf", "k2")),
            Seam("plain", ("fa", "c"), ("fb", "c")),
        ))
        t = skein_rewrite("merge_k_boundaries", s)
        merged = t.facet("fa")
        assert merged.boundary == ("f1", "c", "c_m")
        assert merged.genus == fa.genus + fb.genus
        assert merged.dots == fa.dots + fb.dots
        assert [f.id for f in t.facets] == ["kf", "fa"]
        assert t.facet("kf").boundary == ("k1",)
        assert t.seams == (Seam("inclusion", ("fa", "f1"), ("kf", "k1")),
                           Seam("plain", ("fa", "c"), ("fa", "c_m")))
        assert validate(t)["ok"]
        assert skein_rewrite_check("merge_k_boundaries", s)
        assert evaluate_coloring(t) == evaluate_neck(s)


def test_remove_k_disk_over_a_number_field():
    # removing the dotless upper disk of S^2(a, -) over Q(sqrt2) leaves the
    # relative trace Tr(1) = 2 as a dot on the rational disk
    sqrt2 = make_backend({"kind": "numberfield", "f": "x^2-2", "roots": ["x", "-x"]})
    a = sqrt2.parse_element("k", "5/3")
    s = seamed_sphere(sqrt2, "k", "F", a=a)
    t = skein_rewrite("remove_k_disk", s)
    assert [f.dots for f in t.facets] == [(a, 2)]
    assert skein_rewrite_check("remove_k_disk", s)
    assert evaluate_coloring(s) == evaluate_coloring(t) == evaluate_neck(s) == Fraction(10, 3)


def test_rewrite_pattern_mismatch():
    s = plain_torus(TOWER3, 1)
    with pytest.raises(SurfaceError):
        skein_rewrite("remove_f_disk", s)


# ---------------------------------------------------------------- JSON

def test_surface_from_json_roundtrip():
    doc = {
        "backend": {"kind": "finite", "p": 3, "degrees": [1, 2, 4]},
        "facets": [
            {"id": "f1", "genus": 1, "label": "F", "dots": ["x"],
             "boundary": ["c1", "c2"]},
        ],
        "seams": [
            {"kind": "defect", "sigma": "frob^1",
             "source": ["f1", "c1"], "target": ["f1", "c2"]},
        ],
    }
    s = surface_from_json(doc)
    assert validate(s)["ok"]
    assert evaluate_neck(s) == evaluate_coloring(s)


def test_surface_json_number_field_sigma():
    doc = {
        "backend": {"kind": "numberfield", "f": "x^2-2", "roots": ["x", "-x"]},
        "facets": [{"id": "f", "genus": 0, "label": "F",
                    "boundary": ["c1", "c2"]}],
        "seams": [{"kind": "defect", "sigma": {"root": "-x"},
                   "source": ["f", "c1"], "target": ["f", "c2"]}],
    }
    s = surface_from_json(doc)
    assert evaluate_neck(s) == 0  # trace of conjugation
    assert evaluate_coloring(s) == 0


def test_foreign_automorphism_rejected():
    other = FiniteFieldTower(3, [1, 2, 4])
    sig = other.frobenius_automorphism(1, 1)
    twin = FiniteFieldTower(3, [1, 2])
    s = torus_with_defect(twin, 1, sig)
    assert not validate(s)["ok"]


def test_json_rejects_unknown_seam_kind():
    doc = {
        "backend": {"kind": "finite", "p": 2, "degrees": [1, 2]},
        "facets": [{"id": "f", "genus": 0, "label": "F", "boundary": ["c", "d"]}],
        "seams": [{"kind": "trivalent", "ends": [["f", "c"], ["f", "d"]]}],
    }
    with pytest.raises(SurfaceError):
        surface_from_json(doc)
