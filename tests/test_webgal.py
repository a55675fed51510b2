import pytest

from foamlib.exactalg import parse_unipoly, smallest_irreducible
from foamlib.exactalg.scalars import QQ_DOMAIN, zmod
from foamlib.webgal import (
    _over_qint,
    Composition,
    LaurentQ,
    WebError,
    disk_dot_basis_check,
    multinomial,
    q_factorial,
    q_multinomial,
    validated_root_permutations,
    web_decomposition,
    web_decomposition_from_action,
)


def all_compositions(N):
    if N == 0:
        yield ()
        return
    for first in range(1, N + 1):
        for rest in all_compositions(N - first):
            yield (first,) + rest


# ------------------------------------------------------------- q-multinomials

def test_q_binomial_2_11():
    assert q_multinomial(2, (1, 1)) == LaurentQ({1: 1, -1: 1})


def test_q_multinomial_trivial():
    for N in range(1, 7):
        assert q_multinomial(N, (N,)) == LaurentQ.one()


def test_q_multinomial_q1_value():
    assert q_multinomial(3, (1, 1, 1)).at_q1() == 6


def test_q_multinomial_palindromic_and_q1():
    for N in range(1, 7):
        for comp in all_compositions(N):
            qm = q_multinomial(N, comp)
            assert qm.is_palindromic(), (N, comp)
            assert qm.at_q1() == multinomial(N, comp), (N, comp)
            assert all(c > 0 for c in qm.coeffs.values())


def test_q_multinomial_matches_the_quotient_of_q_factorials():
    # the definition [N]! / prod [a_i]!, divided out in full by LaurentQ
    cases = [(N, comp) for N in range(10) for comp in all_compositions(N)]
    cases += [(20, (7, 6, 7)), (24, (1,) * 24), (30, (10, 10, 10)), (60, (30, 30))]
    for N, comp in cases:
        want = q_factorial(N)
        for a in comp:
            want = want.divexact(q_factorial(a))
        assert q_multinomial(N, comp) == want, comp
    assert q_multinomial(200, (200,)) == LaurentQ.one()


def test_dividing_by_a_q_integer_is_exact_or_raises():
    # (1 + v)(1 + v + v^2) divides by [2] and by [3], not by [4]
    c = [1, 2, 2, 1]
    assert _over_qint(c, 2) == [1, 1, 1]
    assert _over_qint(c, 3) == [1, 1]
    for j, bad in ((2, [1, 2, 2]), (3, [1, 1, 1, 1]), (4, c), (5, c), (2, [1])):
        with pytest.raises(ArithmeticError):
            _over_qint(bad, j)


def test_bad_composition():
    with pytest.raises(WebError):
        q_multinomial(3, (1, 1))
    with pytest.raises(WebError):
        Composition((0, 3))


# ------------------------------------------------------------- decompositions

def test_cubic_gf2_all_singletons():
    f = parse_unipoly("x^3 + x + 1", zmod(2))
    dec = web_decomposition(f, (1, 1, 1))
    assert dec.factors == ((3, 2),)
    assert dec.total_dimension == 6


def test_cubic_gf2_mixed():
    f = parse_unipoly("x^3 + x + 1", zmod(2))
    dec = web_decomposition(f, (1, 2))
    assert dec.factors == ((3, 1),)
    assert dec.total_dimension == 3


def test_full_part_gives_ground():
    f = parse_unipoly("x^3 + x + 1", zmod(2))
    dec = web_decomposition(f, (3,))
    assert dec.factors == ((1, 1),)


def test_dimension_totals_match_multinomial():
    for p in (2, 3):
        for N in range(1, 6):
            f = smallest_irreducible(p, N)
            for comp in all_compositions(N):
                dec = web_decomposition(f, comp)
                assert dec.total_dimension == multinomial(N, comp), (p, N, comp)


def test_all_singletons_free_action():
    # for (1^N) the cyclic action on orderings is free:
    # (N-1)! factors, every degree N
    for p, N in [(2, 2), (2, 3), (2, 4), (3, 4)]:
        f = smallest_irreducible(p, N)
        dec = web_decomposition(f, (1,) * N)
        assert dec.factors == ((N, _fact(N - 1)),), (p, N)


def _fact(n):
    out = 1
    for i in range(2, n + 1):
        out *= i
    return out


def test_invariance_under_permuting_parts():
    f = smallest_irreducible(2, 5)
    a = web_decomposition(f, (1, 2, 2))
    b = web_decomposition(f, (2, 1, 2))
    c = web_decomposition(f, (2, 2, 1))
    assert a.factors == b.factors == c.factors


def test_inseparable_rejected():
    # x^2 + 1 = (x+1)^2 over GF(2)
    f = parse_unipoly("x^2 + 1", zmod(2))
    with pytest.raises(WebError):
        web_decomposition(f, (1, 1))


# --------------------------------------------------------- rational S_N data

def test_sqrt2_permutation_data():
    f = parse_unipoly("x^2 - 2", QQ_DOMAIN)
    roots = [parse_unipoly("x", QQ_DOMAIN), parse_unipoly("-x", QQ_DOMAIN)]
    gens = validated_root_permutations(f, roots, [[1, 0]])
    dec = web_decomposition_from_action(2, (1, 1), gens)
    assert dec.factors == ((2, 1),)


def test_biquadratic_free_action():
    # x^4 + 1 over QQ: roots z, z^3, -z, -z^3; Galois group C2 x C2
    f = parse_unipoly("x^4 + 1", QQ_DOMAIN)
    roots = [parse_unipoly(t, QQ_DOMAIN) for t in ("x", "x^3", "-x", "-x^3")]
    gens = validated_root_permutations(f, roots, [[1, 0, 3, 2], [2, 3, 0, 1]])
    dec = web_decomposition_from_action(4, (1, 1, 1, 1), gens)
    # m = N!/[K:k] = 24/4 = 6 copies of the degree-4 field
    assert dec.factors == ((4, 6),)


def test_bad_permutation_rejected():
    f = parse_unipoly("x^2 - 2", QQ_DOMAIN)
    roots = [parse_unipoly("x", QQ_DOMAIN), parse_unipoly("-x", QQ_DOMAIN)]
    with pytest.raises(WebError):
        validated_root_permutations(f, roots, [[0, 0]])


# ------------------------------------------------------------ disk dot basis

def test_disk_basis_gf2_quadratic():
    f = parse_unipoly("x^2 + x + 1", zmod(2))
    rep = disk_dot_basis_check(f)
    assert rep["independent"] and rep["charpoly_is_f"]


def test_disk_basis_charpoly_cubic():
    f = parse_unipoly("x^3 + x + 1", zmod(2))
    rep = disk_dot_basis_check(f)
    assert rep["independent"] and rep["charpoly_is_f"]


def test_disk_basis_linear():
    f = parse_unipoly("x + 1", zmod(3))
    rep = disk_dot_basis_check(f)
    assert rep["independent"] and rep["charpoly_is_f"]
