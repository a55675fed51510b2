import functools
import itertools
import random
import tracemalloc
from dataclasses import dataclass
from operator import itemgetter

import pytest

from foamlib import wreathrep
from foamlib.cli import run
from foamlib.wreathrep import (
    D4_CHARACTERS,
    GroupAlgElem,
    _elements,
    _inverse,
    _product,
    all_elements,
    beta_perm,
    center_element,
    central_element_checks,
    class_count,
    conjugacy_classes,
    copy_of_center_element,
    cycle_string,
    d4_table_check,
    embed_block,
    epm_idempotent_check,
    group_facts,
    index_of,
    mackey_orbit_check,
    oor_count_cross_check,
    oor_irrep_count,
)


# ------------------------------------------------------ the permutation oracle
#
# G(n) described independently of the index layer: swap bits on the internal
# nodes of the tree, turned into leaf permutations and composed as such.


def p_identity(n_points: int) -> tuple:
    return tuple(range(n_points))


def p_compose(p: tuple, q: tuple) -> tuple:
    """(p o q)(i) = p(q(i)): q acts first.  On one point both are (0,)."""
    return itemgetter(*q)(p) if len(q) > 1 else p


def p_inverse(p: tuple) -> tuple:
    out = [0] * len(p)
    for i, img in enumerate(p):
        out[img] = i
    return tuple(out)


@dataclass(frozen=True)
class TreeAutomorphism:
    """One swap bit per internal node, breadth-first (2^depth - 1 bits)."""

    depth: int
    bits: tuple[int, ...]

    def __post_init__(self):
        want = 2**self.depth - 1
        if len(self.bits) != want:
            raise ValueError(f"depth {self.depth} needs {want} bits")
        if any(b not in (0, 1) for b in self.bits):
            raise ValueError("bits must be 0 or 1")


def to_permutation(t: TreeAutomorphism) -> tuple:
    """Leaf action, computed recursively down the bit tree."""
    def rec(node: int, depth: int) -> tuple:
        if depth == 0:
            return (0,)
        half = rec(2 * node + 1, depth - 1)
        other = rec(2 * node + 2, depth - 1)
        h = 2 ** (depth - 1)
        block = tuple(half[i] for i in range(h)) + tuple(other[i] + h for i in range(h))
        if t.bits[node]:
            return tuple((block[i] + h) % (2 * h) for i in range(2 * h))
        return block

    return rec(0, t.depth)


def generators(n: int) -> list[tuple]:
    """beta on the leftmost block of each depth: n involutions generating G(n),
    since beta conjugates the first copy of G(n-1) onto the second."""
    return [embed_block(beta_perm(k), 2**n, 0) for k in range(n, 0, -1)]


def _factor_generators(n: int) -> list[tuple[tuple, tuple]]:
    """Each generator of G(n-1) on the first and on the second half of the
    leaves: together they generate H = G(n-1) x G(n-1)."""
    return [(embed_block(g, 2**n, 0), embed_block(g, 2**n, 2 ** (n - 1)))
            for g in generators(n - 1)]


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
        assert _elements(3)[index_of(composed)] == composed


def test_bijection_small_depths():
    for n in (1, 2, 3):
        perms = all_elements(n)
        assert len(set(perms)) == 2 ** (2**n - 1)
        for p in perms[:50]:
            assert perms[index_of(p)] == p


@functools.cache
def _from_bits(n):
    """G(n) by the tree recursion, one bit tuple at a time."""
    return tuple(to_permutation(TreeAutomorphism(n, bits))
                 for bits in itertools.product((0, 1), repeat=2**n - 1))


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
    with pytest.raises(ValueError, match="not a tree symmetry"):
        index_of((1, 2, 3, 0))  # a 4-cycle not preserving halves
    for bad in ((0, 2, 1, 3), (0, 0), (0, 1, 2), (1,), ()):
        with pytest.raises(ValueError):
            index_of(bad)
    with pytest.raises(ValueError, match="leaves"):
        GroupAlgElem.of_perm(3, (1, 0, 3, 2))


def _index_corpus(groups):
    """Integer sequences for index_of: every tuple over {-1, ..., L} on
    L = 1, 2 and 4 leaves, seeded 8-leaf sequences and permutations, every
    element of G(3) and G(4), and lengths that are no power of two."""
    for leaves in (1, 2, 4):
        yield from itertools.product(range(-1, leaves + 1), repeat=leaves)
    rng = random.Random(47)
    for _ in range(6000):
        yield tuple(rng.randrange(-1, 9) for _ in range(8))
        yield tuple(rng.sample(range(8), 8))
    yield from groups[8]
    yield from groups[16]
    yield from ((), (0, 1, 2), (0,) * 6, (1, 0, 3, 2, 5, 4))


def test_index_of_accepts_exactly_the_tree_symmetries():
    groups = {2**n: set(_from_bits(n)) for n in range(5)}
    count = 0
    for p in _index_corpus(groups):
        count += 1
        n = len(p).bit_length() - 1
        if p in groups.get(len(p), ()):
            assert _elements(n)[index_of(p)] == p
        else:
            with pytest.raises(ValueError) as info:
                index_of(p)
            assert str(info.value) == f"{p} is not a tree symmetry"
    assert count == 3 + 4**2 + 6**4 + 12000 + 2**7 + 2**15 + 4


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


def test_central_element_checks_refuse_past_n_4():
    # is_central reads the conjugation tables of the whole group
    with pytest.raises(ValueError, match="n <= 4"):
        central_element_checks(5)


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
        _generator_tables,
        _mackey_tables,
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


@pytest.fixture
def lifted_images(monkeypatch):
    """Every `images` argument `_lift` is given while the generator,
    conjugation and Mackey tables of G(1), ..., G(4) are built anew."""
    from foamlib.wreathrep import (
        _conjugation_tables,
        _generator_tables,
        _lower_generator_tables,
        _mackey_tables,
    )

    seen = []
    real = wreathrep._lift

    def recorded(images):
        seen.append(images)
        return real(images)

    caches = (_conjugation_tables, _lower_generator_tables)
    for cache in caches:
        cache.cache_clear()
    monkeypatch.setattr(wreathrep, "_lift", recorded)
    for n in (1, 2, 3, 4):
        list(_generator_tables(n))
        _conjugation_tables(n)
        _mackey_tables(n)
    monkeypatch.undo()
    for cache in caches:
        cache.cache_clear()
    return seen


def test_lift_slices_and_sums_agree(lifted_images):
    from foamlib.wreathrep import _indices, _lift

    kinds = set()
    for images in lifted_images:
        table = _lift(images)
        kinds.update(type(lo) for _, lo in images)
        # the same values as lists take the entry-by-entry path
        assert table == _lift([(hi, list(lo)) for hi, lo in images])
        assert table == [a + b for hi, lo in images for a in hi for b in lo]
        ints = _indices(len(table))
        assert all(ints[x] is x for x in table)
    assert kinds == {range, list}


def test_mackey_tables_cost_a_pointer_an_entry():
    from foamlib.wreathrep import (
        _indices,
        _lower_generator_tables,
        _mackey_tables,
        _order,
    )

    size = _order(4)
    _indices(size)  # the shared ints are built once per process, not here
    _lower_generator_tables(3)
    tracemalloc.start()
    try:
        tables = _mackey_tables(4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    entries = 12 * size
    assert sum(map(len, tables)) == entries
    assert peak < 1.5 * 8 * entries


# --------------------------------------------------------- index arithmetic

def _pairs(n, count):
    """Every pair of indices of G(n) for n <= 3, a seeded sample at n = 4."""
    size = len(_elements(n))
    if n <= 3:
        return itertools.product(range(size), repeat=2)
    rng = random.Random(41)
    return [(rng.randrange(size), rng.randrange(size)) for _ in range(count)]


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
def test_index_product_is_composition(n):
    elems = _elements(n)
    for x, y in _pairs(n, 4000):
        assert elems[_product(n, x, y)] == p_compose(elems[x], elems[y])


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
def test_index_inverse_is_inverse(n):
    elems = _elements(n)
    for x, _ in _pairs(n, 2000):
        assert elems[_inverse(n, x)] == p_inverse(elems[x])


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
def test_index_of_round_trips(n):
    elems = _elements(n)
    indices = (range(len(elems)) if n <= 3
               else random.Random(43).sample(range(len(elems)), 2000))
    for i in indices:
        assert index_of(elems[i]) == i


def test_group_algebra_repr_decodes_leaf_actions():
    z = GroupAlgElem.of_perm(2, (1, 0, 2, 3)) + GroupAlgElem.of_perm(2, (0, 1, 3, 2), 2)
    assert repr(z) == "2*(3,4) + 1*(1,2)"


# ---------------------------------------------------------- negative controls
#
# Each one breaks a single layer (a table, the product, the decoder) and must
# turn a check false, since the elements the checks name enter by leaf action.

def _one_dot_copies(n):
    return [index_of(copy_of_center_element(n, n - 1, i)) for i in (0, 1)]


def _swap_beta_conjugation_entries(monkeypatch, p, q):
    """Swap entries p and q of beta's conjugation table of G(3)."""
    real = wreathrep._conjugation_tables

    def swapped(n):
        tables = real(n)
        if n != 3:
            return tables
        beta = list(tables[0])
        beta[p], beta[q] = beta[q], beta[p]
        return (beta,) + tables[1:]

    monkeypatch.setattr(wreathrep, "_conjugation_tables", swapped)


@pytest.mark.parametrize("entries", ["one-dot copies", "identity and c_n"])
def test_swapped_beta_conjugation_entries_fail_facts(entries, monkeypatch, capsys):
    p, q = (_one_dot_copies(3) if entries == "one-dot copies"
            else (0, index_of(center_element(3))))
    _swap_beta_conjugation_entries(monkeypatch, p, q)
    assert run(["wreath", "facts", "-n", "3"]) == 1
    assert "FAIL" in capsys.readouterr().out


@pytest.fixture
def fresh_class_orbits():
    """Walk the classes anew, and drop what was walked under a patch."""
    wreathrep._class_orbits.cache_clear()
    yield
    wreathrep._class_orbits.cache_clear()


def test_swapped_conjugation_entries_fail_the_class_count(
        fresh_class_orbits, monkeypatch, capsys):
    # e and c_3 are classes of one element each; swapped in beta's table,
    # each is sent to the other and the walk meets one class of two
    _swap_beta_conjugation_entries(monkeypatch, 0, index_of(center_element(3)))
    assert run(["wreath", "oor", "-n", "3"]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_classes_are_walked_once_per_process(fresh_class_orbits, monkeypatch):
    walks = []
    real = wreathrep._orbits

    def counted(tables, size, starts):
        walks.append(size)
        return real(tables, size, starts)

    monkeypatch.setattr(wreathrep, "_orbits", counted)
    first = class_count(4)
    assert class_count(4) == first == 230
    assert len(conjugacy_classes(4)) == 230
    assert walks == [2**15]
    orbits = wreathrep._class_orbits(4)
    assert type(orbits) is tuple
    assert all(type(orbit) is tuple for orbit in orbits)


def _product_without_swap(n, x, y):
    if n == 0:
        return 0
    M = wreathrep._order(n - 1)
    r, x = divmod(x, M * M)
    s, y = divmod(y, M * M)
    a, b = divmod(x, M)
    c, d = divmod(y, M)
    return (((r ^ s) * M + _product_without_swap(n - 1, a, c)) * M
            + _product_without_swap(n - 1, b, d))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_product_without_the_swap_fails_c_n_inductive(n, monkeypatch):
    monkeypatch.setattr(wreathrep, "_product", _product_without_swap)
    rep = central_element_checks(n)
    assert not rep["c_n_inductive"] and not rep["ok"]
    assert not group_facts(n)["twist_ok"]


def test_product_without_the_swap_fails_the_d4_table(monkeypatch):
    monkeypatch.setattr(wreathrep, "_product", _product_without_swap)
    assert not d4_table_check()["ok"]


def test_decoder_with_two_entries_swapped_fails_facts(monkeypatch, capsys):
    real = wreathrep._elements
    p, q = index_of(center_element(3)), _one_dot_copies(3)[0]

    def swapped(n):
        elems = list(real(n))
        if n == 3:
            elems[p], elems[q] = elems[q], elems[p]
        return tuple(elems)

    monkeypatch.setattr(wreathrep, "_elements", swapped)
    assert run(["wreath", "facts", "-n", "3"]) == 1
    assert "FAIL" in capsys.readouterr().out
