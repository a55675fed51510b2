import itertools
import random

import pytest

from foamlib.wreathrep import (
    D4_CHARACTERS,
    GroupAlgElem,
    TreeAutomorphism,
    all_elements,
    center_element,
    central_element_checks,
    class_count,
    conjugacy_classes,
    cycle_string,
    d4_table_check,
    epm_idempotent_check,
    from_permutation,
    generators,
    group_facts,
    mackey_orbit_check,
    oor_count_cross_check,
    oor_irrep_count,
    p_compose,
    p_identity,
    p_inverse,
    to_permutation,
)


# ------------------------------------------------------- tree <-> permutation

def test_beta2_is_paper_formula():
    # root bit only: (13)(24) in 1-indexed cycle notation
    t = TreeAutomorphism(2, (1, 0, 0))
    assert to_permutation(t) == (2, 3, 0, 1)
    assert cycle_string(to_permutation(t)) == "(1,3)(2,4)"


def test_identity_bits():
    t = TreeAutomorphism(3, (0,) * 7)
    assert to_permutation(t) == p_identity(8)


def test_tree_composition_is_permutation_composition():
    rng = random.Random(3)
    for _ in range(30):
        bits1 = tuple(rng.randint(0, 1) for _ in range(7))
        bits2 = tuple(rng.randint(0, 1) for _ in range(7))
        p1 = to_permutation(TreeAutomorphism(3, bits1))
        p2 = to_permutation(TreeAutomorphism(3, bits2))
        composed = p_compose(p1, p2)
        # composition lands back in the group and round-trips
        t = from_permutation(3, composed)
        assert to_permutation(t) == composed


def test_bijection_small_depths():
    for n in (1, 2, 3):
        perms = all_elements(n)
        assert len(set(perms)) == 2 ** (2**n - 1)
        for p in perms[:50]:
            assert to_permutation(from_permutation(n, p)) == p


def _from_bits(n):
    """G(n) by the tree recursion, one bit tuple at a time."""
    return [to_permutation(TreeAutomorphism(n, bits))
            for bits in itertools.product((0, 1), repeat=2**n - 1)]


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
def test_cached_elements_are_the_tree_symmetries(n):
    elems = all_elements(n)
    assert len(set(elems)) == len(elems) == 2 ** (2**n - 1)
    assert set(elems) == set(_from_bits(n))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_level_generators_generate(n):
    # closure of the n level swaps under composition, by breadth-first search
    gens = generators(n)
    assert len(gens) == n
    seen = {p_identity(2**n)}
    frontier = list(seen)
    while frontier:
        nxt = []
        for g in frontier:
            for s in gens:
                h = p_compose(g, s)
                if h not in seen:
                    seen.add(h)
                    nxt.append(h)
        frontier = nxt
    assert len(seen) == 2 ** (2**n - 1)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_classes_are_brute_force_conjugacy_classes(n):
    group = _from_bits(n)
    brute = {frozenset(p_compose(p_compose(g, x), p_inverse(g)) for g in group)
             for x in group}
    assert {frozenset(c) for c in conjugacy_classes(n)} == brute


@pytest.mark.parametrize("n", [1, 2, 3])
def test_center_is_brute_force_centralizer(n):
    group = _from_bits(n)
    brute = sorted(z for z in group
                   if all(p_compose(z, g) == p_compose(g, z) for g in group))
    assert group_facts(n)["center"] == brute


def test_non_member_rejected():
    with pytest.raises(ValueError):
        from_permutation(2, (1, 2, 3, 0))  # a 4-cycle not preserving halves


# ------------------------------------------------------------- group facts

def test_group_facts_n1():
    rep = group_facts(1)
    assert rep["order"] == 2 and rep["ok"]


def test_group_facts_n2():
    rep = group_facts(2)
    assert rep["order"] == 8 and rep["ok"]


def test_group_facts_n3():
    rep = group_facts(3)
    assert rep["order"] == 128 and rep["ok"]


def test_group_facts_n4():
    rep = group_facts(4)
    assert rep["order"] == 32768 and rep["ok"]


def test_center_is_expected_pairing():
    assert center_element(2) == (1, 0, 3, 2)  # (12)(34)


# ---------------------------------------------------------------- Mackey

@pytest.mark.parametrize("n", [2, 3, 4])
def test_mackey_two_orbits(n):
    rep = mackey_orbit_check(n)
    assert rep["ok"], rep
    assert rep["orbit_sizes"] == [2 ** (2**n - 2)] * 2


# --------------------------------------------------------- central elements

@pytest.mark.parametrize("n", [2, 3, 4])
def test_central_elements(n):
    rep = central_element_checks(n)
    assert rep["ok"], rep


def test_one_dot_bubble_is_that_sum():
    # at n = 2 the element is (12) + (34)
    z = GroupAlgElem.of_perm(2, (1, 0, 2, 3)) + GroupAlgElem.of_perm(2, (0, 1, 3, 2))
    assert z.is_central()


@pytest.mark.parametrize("n", [1, 2, 3])
def test_epm_idempotents(n):
    rep = epm_idempotent_check(n)
    assert rep["ok"], rep


@pytest.mark.parametrize("check, n, bound", [
    (epm_idempotent_check, 0, "n >= 1"),
    (epm_idempotent_check, -1, "n >= 1"),
    (central_element_checks, -1, "n >= 0"),
    (central_element_checks, -2, "n >= 0"),
])
def test_element_checks_refuse_small_n(check, n, bound):
    with pytest.raises(ValueError, match=bound):
        check(n)


# ------------------------------------------------------------------ D4 table

def test_d4_table_all_checks():
    rep = d4_table_check()
    assert rep["ok"], rep


def test_d4_table_entries():
    assert D4_CHARACTERS["V"] == (2, 0, -2, 0, 0)
    assert D4_CHARACTERS["V-"][3] == -1
    rep = d4_table_check()
    assert rep["perm_char"] == (4, 2, 0, 0, 0)


def test_d4_inner_product_of_v():
    from foamlib.wreathrep import _char_inner, _d4_classes

    classes = _d4_classes()
    assert _char_inner(classes, D4_CHARACTERS["V"], D4_CHARACTERS["V"]) == 1


# ------------------------------------------------------------------ OOR count

def test_oor_counts():
    assert [oor_irrep_count(n) for n in (1, 2, 3, 4)] == [2, 5, 20, 230]


def test_oor_recursion_shape():
    k = oor_irrep_count(3)
    assert oor_irrep_count(4) == k * (k - 1) // 2 + 2 * k


@pytest.mark.parametrize("n", [1, 2, 3])
def test_oor_matches_class_count(n):
    assert oor_count_cross_check(n)["ok"]


def test_oor_matches_class_count_n4():
    assert oor_count_cross_check(4)["ok"]


def test_class_counts_small():
    assert [len(conjugacy_classes(n)) for n in (1, 2, 3)] == [2, 5, 20]


def test_class_count_is_the_number_of_listed_classes():
    counts = [class_count(n) for n in (1, 2, 3, 4)]
    assert counts == [len(conjugacy_classes(n)) for n in (1, 2, 3, 4)]
    assert counts == [2, 5, 20, 230]


@pytest.mark.parametrize("count", [class_count, conjugacy_classes])
def test_class_passes_refuse_past_n_4(count):
    with pytest.raises(ValueError, match="n <= 4"):
        count(5)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_index_tables_match_composition(n):
    # the tables built by index arithmetic against the ones read off
    # composed permutations
    from foamlib.wreathrep import (
        _conjugation_tables,
        _elements,
        _factor_generators,
        _generator_tables,
        _mackey_tables,
        embed_block,
    )

    elems = _elements(n)
    index = {g: i for i, g in enumerate(elems)}

    def table(f):
        return [index[f(g)] for g in elems]

    # beta's left and right tables, which group_facts' coset check reads
    beta = generators(n)[0]
    left, right = next(_generator_tables(n))
    assert list(left) == table(lambda g: p_compose(beta, g))
    assert list(right) == table(lambda g: p_compose(g, beta))
    conj = [table(lambda g, s=s: p_compose(p_compose(s, g), s))
            for s in generators(n)]
    assert [list(t) for t in _conjugation_tables(n)] == conj
    hgens = [s for pair in _factor_generators(n) for s in pair]
    mackey = ([table(lambda g, s=s: p_compose(s, g)) for s in hgens]
              + [table(lambda g, s=s: p_compose(g, s)) for s in hgens])
    assert [list(t) for t in _mackey_tables(n)] == mackey
    assert len(mackey) == 4 * (n - 1)
    # g x 1 and 1 x g are the generators of G(n-1) placed on each half
    assert hgens == [embed_block(g, 2**n, half) for g in generators(n - 1)
                     for half in (0, 2 ** (n - 1))]
