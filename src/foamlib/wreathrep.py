"""Iterated wreath products of S2: one element representation and its checks.

G(n) = G(n-1) wr S2 is the symmetry group of the full binary tree of depth
n.  An element of G(n) is an index in wreath order: with
M = |G(n-1)| = 2^(2^(n-1) - 1), the index r*M^2 + i*M + j stands for

    beta^r o (G(n-1)[i] x G(n-1)[j]),      beta = the half-swap,

the i-th element of G(n-1) acting on the first half of the leaves and the
j-th on the second.  Since (a x b) o beta = beta o (b x a), products and
inverses follow from the index alone, by recursion on n:

    (r1, i1, j1)(r2, i2, j2) = (r1 xor r2, i1' i2, j1' j2),

where (i1', j1') is (i1, j1), swapped when r2 = 1.  The group algebra
(`GroupAlgElem`), the central-element and e_+/e_- checks, the beta twist
and the dihedral table all multiply indices this way; no permutation is
composed.

Leaf permutations (tuples perm[i] = image of i, 0-indexed; printed cycles
are 1-indexed) appear only at the boundary.  On the way in, an element
the paper names by its leaf action (c_n, the copies of c_k, beta, g x 1
and 1 x g, the subgroups of the dihedral table) enters once through
`index_of`, which splits the permutation into halves by the same
recursion and refuses one that is not a tree symmetry.  On the way out,
`_elements(n)` decodes each index to its leaf permutation: for the order
check (distinct permutations), the listed center, membership of
H = G(n-1) x G(n-1) by leaf action, the listed classes and cycle strings.
Since named elements enter by their leaf action, a wrong table, product
or decoder still turns a check false.

The whole-group passes (conjugacy classes, the center, the coset split,
the H x H orbits) work over indices: a table per generator maps each
index to the index of its conjugate (or product), and orbits are walked
over those tables.  The generating set they use is beta on the leftmost
block of each depth, n involutions for G(n); doubled onto both halves it
gives the 2(n-1) generators of H.  The tables of G(n) follow from those
of G(n-1) by the same index arithmetic (the rules are stated above
`_lift`): each one is a single list comprehension of index sums, stored
as an array of machine integers.  A conjugation table is one such lift of
G(n-1)'s conjugation and multiplication tables, not a left table composed
with a right one.  The multiplication tables are kept only for the levels
below the one being built, the conjugation tables per n.

What is counted: the center is the set of indices that every conjugation
table fixes, filtered one table at a time; `class_count` counts the
conjugation orbits of all of G(n) as the walk meets them, while
`conjugacy_classes` also lists and sorts each class; the Mackey check
walks the H x H orbits over the left and right tables of H's generators.
Class counts are always counted as orbits of the enumerated group, never
read off the recursion.

The dihedral character data for G(2) lives here as an explicit table and
is verified (orthogonality, restriction to the permutation module, the
tensor decompositions) rather than derived.
"""

from __future__ import annotations

import functools
import random
from array import array
from fractions import Fraction


# ---------------------------------------------------------------------------
# Leaf permutations: the boundary


def p_cycles(p: tuple) -> list[tuple]:
    seen = [False] * len(p)
    out = []
    for i in range(len(p)):
        if seen[i] or p[i] == i:
            seen[i] = True
            continue
        cyc = []
        j = i
        while not seen[j]:
            seen[j] = True
            cyc.append(j)
            j = p[j]
        out.append(tuple(cyc))
    return out


def cycle_string(p: tuple) -> str:
    cycles = p_cycles(p)
    if not cycles:
        return "e"
    return "".join("(" + ",".join(str(i + 1) for i in c) + ")" for c in cycles)


def beta_perm(n: int) -> tuple:
    """The branch swap on 2^n leaves: i <-> i + 2^(n-1)."""
    h = 2 ** (n - 1)
    return tuple((i + h) % (2 * h) for i in range(2 * h))


def index_of(perm) -> int:
    """The wreath-order index of a leaf permutation, split as
    beta^r o (a x b) half by half; ValueError if it is not a tree symmetry."""
    p = tuple(perm)

    def halve(lo: int, size: int, off: int) -> int:
        """The index of p[lo:lo + size] - off, a block of that many leaves."""
        if size < 2 or size % 2:
            if size != 1 or p[lo] != off:
                raise ValueError(f"{perm} is not a tree symmetry")
            return 0
        h = size // 2
        # the largest leaf of the first half tells a x b from beta o (a x b);
        # the leaf test refuses every block that is not a tree symmetry
        if max(p[lo:lo + h]) < off + h:
            r, off_a, off_b = 0, off, off + h
        else:
            # beta o (a x b) sends the first half by a onto the second
            r, off_a, off_b = 1, off + h, off
        M = 1 << (h - 1)  # |G(n-1)| = 2^(2^(n-1) - 1), h = 2^(n-1)
        return (r * M + halve(lo, h, off_a)) * M + halve(lo + h, h, off_b)

    return halve(0, len(p), 0)


@functools.cache
def _elements(n: int) -> tuple:
    """The decoder: G(n) as leaf permutations in wreath order, every a x b
    for a, b in G(n - 1), then the same blocks composed with beta.  Index
    r*M^2 + i*M + j (M = |G(n-1)|) is beta^r o (G(n-1)[i] x G(n-1)[j])."""
    if n < 0:
        raise ValueError("n >= 0")
    if n == 0:
        return ((0,),)
    h = 2 ** (n - 1)
    low = _elements(n - 1)
    high = [tuple(i + h for i in p) for p in low]
    # beta o (a x b) takes the first half by a onto the second, the second by b back
    blocks = [a + b for a in low for b in high]
    return tuple(blocks + [a + b for a in high for b in low])


def all_elements(n: int) -> list[tuple]:
    """Every element of G(n) as a leaf permutation (2^(2^n - 1) of them)."""
    return list(_elements(n))


# ---------------------------------------------------------------------------
# Index arithmetic


def _order(n: int) -> int:
    """|G(n)| = 2^(2^n - 1)."""
    return 1 << (2**n - 1)


def _product(n: int, x: int, y: int) -> int:
    """The index of G(n)[x] o G(n)[y] (y acts first): beta^r o (a x b) times
    beta^s o (c x d) is beta^(r xor s) o (a' c x b' d), where (a', b') is
    (a, b), swapped when s = 1, since (a x b) o beta = beta o (b x a)."""
    if n == 0:
        return 0
    M = _order(n - 1)
    r, x = divmod(x, M * M)
    s, y = divmod(y, M * M)
    a, b = divmod(x, M)
    c, d = divmod(y, M)
    if s:
        a, b = b, a
    return ((r ^ s) * M + _product(n - 1, a, c)) * M + _product(n - 1, b, d)


def _inverse(n: int, x: int) -> int:
    """The index of G(n)[x]^-1: (beta^r o (a x b))^-1 = (a^-1 x b^-1) o beta^r,
    which is beta o (b^-1 x a^-1) when r = 1."""
    if n == 0:
        return 0
    M = _order(n - 1)
    r, x = divmod(x, M * M)
    a, b = divmod(x, M)
    a, b = _inverse(n - 1, a), _inverse(n - 1, b)
    if r:
        a, b = b, a
    return (r * M + a) * M + b


# Index tables.  With M = |G(n-1)|, the element of index r*M^2 + i*M + j is
# beta^r o (a x b), a = G(n-1)[i], b = G(n-1)[j], and since
# (a x b) o beta = beta o (b x a), multiplying it by a generator moves its
# index by the rules
#     beta o .           (r, i, j) -> (1-r, i, j)
#     . o beta           (r, i, j) -> (1-r, j, i)
#     (f x g) o .        (0, i, j) -> (0, f i, g j),  (1, i, j) -> (1, g i, f j)
#     . o (f x g)        (r, i, j) -> (r, i f, j g)
# where f i is the index of f o G(n-1)[i] and i f that of G(n-1)[i] o f.


def _lift(images) -> array:
    """The table sending r*M^2 + i*M + j to hi[i] + lo[j], (hi, lo) = images[r]."""
    return array("l", [a + b for hi, lo in images for a in hi for b in lo])


def _block(M: int, f, g) -> tuple[array, array]:
    """Left and right multiplication by f x g on G(n), from the (left, right)
    tables of f and of g on G(n-1)."""
    (fl, fr), (gl, gr) = f, g
    top = M * M
    return (_lift([([x * M for x in fl], gl), ([top + x * M for x in gl], fl)]),
            _lift([([x * M for x in fr], gr), ([top + x * M for x in fr], gr)]))


def _generator_tables(n: int):
    """Yield the (left, right) multiplication tables on G(n) of the n level
    swaps: beta, then each level swap of G(n-1) on the first half."""
    if n == 0:
        return
    M = _order(n - 1)
    ids, rows = range(M), [i * M for i in range(M)]
    top = M * M
    yield (_lift([([top + a for a in rows], ids), (rows, ids)]),
           _lift([([top + i for i in ids], rows), (ids, rows)]))
    for t in _lower_generator_tables(n - 1):
        yield _block(M, t, (ids, ids))


@functools.cache
def _lower_generator_tables(n: int) -> tuple[tuple[array, array], ...]:
    """The tables of _generator_tables(n), kept for building level n + 1."""
    return tuple(_generator_tables(n))


@functools.cache
def _conjugation_tables(n: int) -> tuple[array, ...]:
    """Per generator s (an involution): index i -> index of s G(n)[i] s.

    beta swaps the factors, (r, i, j) -> (r, j, i); a generator f x 1 of
    the first half conjugates a x b to f a f x b and beta o (a x b) to
    beta o (a f x f b), so each table is one lift of tables of G(n-1)."""
    if n == 0:
        return ()
    M = _order(n - 1)
    ids, rows = range(M), [i * M for i in range(M)]
    top = M * M
    tables = [_lift([(ids, rows), ([top + i for i in ids], rows)])]
    for (fl, fr), fc in zip(_lower_generator_tables(n - 1),
                            _conjugation_tables(n - 1)):
        tables.append(_lift([([x * M for x in fc], ids),
                             ([top + x * M for x in fr], fl)]))
    return tuple(tables)


def _mackey_tables(n: int) -> list[array]:
    """Left, then right, multiplication on G(n) by the generators of
    H = G(n-1) x G(n-1): g x 1 and 1 x g for each generator g of G(n-1)."""
    M = _order(n - 1)
    ident = (range(M), range(M))
    blocks = [b for t in _lower_generator_tables(n - 1)
              for b in (_block(M, t, ident), _block(M, ident, t))]
    return [left for left, _ in blocks] + [right for _, right in blocks]


def _orbits(tables, size: int, starts) -> list[list[int]]:
    """The orbits, under the maps the index tables hold, of the indices in
    `starts`, each listed once in the order its first start is met."""
    seen = [False] * size  # a list: it subscripts faster than a bytearray
    out = []
    for i in starts:
        if seen[i]:
            continue
        seen[i] = True
        orbit = [i]  # grows while it is walked
        for j in orbit:
            for t in tables:
                k = t[j]
                if not seen[k]:
                    seen[k] = True
                    orbit.append(k)
        out.append(orbit)
    return out


def center_element(n: int) -> tuple:
    """c(n) = (1,2)(3,4)...(2^n - 1, 2^n); c(0) is the identity."""
    if n == 0:
        return (0,)
    size = 2**n
    return tuple(i + 1 if i % 2 == 0 else i - 1 for i in range(size))


def embed_block(perm: tuple, total: int, offset: int) -> tuple:
    """Make perm act on [offset, offset + len(perm)) inside S(total)."""
    out = list(range(total))
    for i, img in enumerate(perm):
        out[offset + i] = offset + img
    return tuple(out)


# ---------------------------------------------------------------------------
# Group facts


def group_facts(n: int) -> dict:
    if n < 1:
        raise ValueError("n >= 1")
    if n > 4:
        raise ValueError("full enumeration is desk-scale only (n <= 4)")
    elems = _elements(n)
    report = {}
    report["order"] = len(set(elems))
    report["order_expected"] = 2 ** (2**n - 1)
    report["order_ok"] = report["order"] == report["order_expected"] == len(elems)

    cn = center_element(n)
    # the centralizer of a generating set is the center: the indices that
    # every conjugation table fixes, filtered one table at a time
    fixed = range(len(elems))
    for t in _conjugation_tables(n):
        fixed = [i for i in fixed if t[i] == i]
    ident = tuple(range(2**n))
    report["center"] = sorted(elems[i] for i in fixed)
    report["center_ok"] = report["center"] == sorted([ident, cn])

    # coset decomposition along the index-two subgroup H (it keeps the
    # halves): H beta = beta H = G \ H, the r = 1 half of the wreath order,
    # read off beta's left and right multiplication tables
    half = 2 ** (n - 1)
    h_index = [i for i, g in enumerate(elems) if g[0] < half]
    beta_left, beta_right = next(_generator_tables(n))
    report["coset_ok"] = (
        set(map(beta_right.__getitem__, h_index))
        == set(map(beta_left.__getitem__, h_index))
        == set(range(len(elems) // 2, len(elems)))
    )

    report["twist_ok"] = _twist_ok(n)
    report["ok"] = all(report[k] for k in
                       ("order_ok", "center_ok", "coset_ok", "twist_ok"))
    return report


def mackey_orbit_check(n: int) -> dict:
    """H x H orbits on G(n), H = G(n-1) x G(n-1): two orbits of size |H|."""
    if n < 1:
        raise ValueError("n >= 1")
    if n > 4:
        raise ValueError("desk-scale only (n <= 4)")
    tables = _mackey_tables(n)
    size = _order(n)
    # in wreath order the identity has index 0 and beta index size / 2;
    # _orbits lists an orbit once, so beta in the identity's leaves one
    sizes = sorted(map(len, _orbits(tables, size, [0, size // 2])))
    h_order = 2 ** (2**n - 2)
    report = {
        "orbit_sizes": sizes,
        "two_orbits_cover": len(sizes) == 2 and sum(sizes) == size,
        "sizes_ok": sizes == [h_order, h_order],
    }
    report["twist_ok"] = _twist_ok(n)
    report["ok"] = all(report[k] for k in ("two_orbits_cover", "sizes_ok", "twist_ok"))
    return report


def _twist_ok(n: int) -> bool:
    """beta conjugation swaps the two factors of H: beta (g x 1) beta = 1 x g
    and back, for g the level swaps generating G(n-1), by index products."""
    beta = index_of(beta_perm(n))

    def twist(x):
        return _product(n, _product(n, beta, x), beta)

    for k in range(1, n):
        left = index_of(embed_block(beta_perm(k), 2**n, 0))
        right = index_of(embed_block(beta_perm(k), 2**n, 2 ** (n - 1)))
        if twist(left) != right or twist(right) != left:
            return False
    return True


# ---------------------------------------------------------------------------
# Group algebra elements


class GroupAlgElem:
    """Sparse rational element of Q[G(n)], keyed by wreath-order index."""

    __slots__ = ("n", "coeffs")

    def __init__(self, n: int, coeffs=None):
        self.n = n
        self.coeffs = {}
        for g, c in (coeffs or {}).items():
            c = Fraction(c)
            if c:
                self.coeffs[g] = c

    @staticmethod
    def of_perm(n: int, perm: tuple, c=1) -> "GroupAlgElem":
        """c times the element of G(n) with the leaf action perm."""
        if len(perm) != 2**n:
            raise ValueError(f"{perm} does not act on the {2**n} leaves of G({n})")
        return GroupAlgElem(n, {index_of(perm): c})

    @staticmethod
    def unit(n: int) -> "GroupAlgElem":
        return GroupAlgElem(n, {0: 1})

    def __add__(self, other):
        out = dict(self.coeffs)
        for g, c in other.coeffs.items():
            out[g] = out.get(g, Fraction(0)) + c
        return GroupAlgElem(self.n, out)

    def __sub__(self, other):
        return self + other * -1

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return GroupAlgElem(
                self.n, {g: c * other for g, c in self.coeffs.items()}
            )
        out = {}
        for x, c1 in self.coeffs.items():
            for y, c2 in other.coeffs.items():
                g = _product(self.n, x, y)
                out[g] = out.get(g, Fraction(0)) + c1 * c2
        return GroupAlgElem(self.n, out)

    __rmul__ = __mul__

    def __eq__(self, other):
        return isinstance(other, GroupAlgElem) and self.n == other.n \
            and self.coeffs == other.coeffs

    def is_central(self) -> bool:
        """Fixed by conjugation by every generator: each conjugation table
        sends each element of the support to one of the same coefficient."""
        return all(self.coeffs.get(t[g]) == c
                   for t in _conjugation_tables(self.n)
                   for g, c in self.coeffs.items())

    def __repr__(self):
        elems = _elements(self.n)
        parts = [f"{c}*{cycle_string(p)}"
                 for p, c in sorted((elems[g], c) for g, c in self.coeffs.items())]
        return " + ".join(parts) if parts else "0"


def copy_of_center_element(n: int, k: int, index: int) -> tuple:
    """c(k)^(index): the center of the index-th copy of G(k) inside G(n).

    The copies sit over the 2^(n-k) depth-(n-k) nodes, blocks of 2^k leaves.
    """
    block = 2**k
    return embed_block(center_element(k), 2**n, index * block)


def central_element_checks(n: int) -> dict:
    if n < 0:
        raise ValueError("n >= 0")
    if n > 4:
        raise ValueError("desk-scale only (n <= 4)")  # is_central reads whole-group tables

    def named(perm):
        return GroupAlgElem.of_perm(n, perm)

    report = {}
    cn = named(center_element(n))
    report["c_n_central"] = cn.is_central()
    report["c_n_squared_is_one"] = (cn * cn) == GroupAlgElem.unit(n)
    if n >= 1:
        z = named(copy_of_center_element(n, n - 1, 0)) + \
            named(copy_of_center_element(n, n - 1, 1))
        report["one_dot_bubble_central"] = z.is_central()
    if n >= 2:
        z4 = GroupAlgElem(n)
        for i in range(4):
            z4 = z4 + named(copy_of_center_element(n, n - 2, i))
        report["four_dot_bubble_central"] = z4.is_central()
        # the inductive description of c_n (the base case is c_1 itself):
        # c_n = c^(1) c^(2), the second copy being beta c^(1) beta
        beta = named(beta_perm(n))
        first = named(copy_of_center_element(n, n - 1, 0))
        second = beta * first * beta
        report["c_n_inductive"] = (
            second == named(copy_of_center_element(n, n - 1, 1))
            and first * second == cn)
    report["ok"] = all(v for k, v in report.items() if k != "ok")
    return report


def epm_idempotent_check(n: int) -> dict:
    if n < 1:
        raise ValueError("n >= 1")
    beta = GroupAlgElem.of_perm(n, beta_perm(n))
    one = GroupAlgElem.unit(n)
    half = Fraction(1, 2)
    e_plus = (one + beta) * half
    e_minus = (one - beta) * half
    report = {
        "beta_squared_is_one": (beta * beta) == one,
        "sum_is_one": (e_plus + e_minus) == one,
        "e_plus_idempotent": (e_plus * e_plus) == e_plus,
        "e_minus_idempotent": (e_minus * e_minus) == e_minus,
        "orthogonal": (e_plus * e_minus) == GroupAlgElem(n),
    }
    report["ok"] = all(report.values())
    return report


# ---------------------------------------------------------------------------
# Conjugacy classes


def _class_orbits(n: int) -> list[list[int]]:
    """The conjugation orbits of G(n), as index lists, in wreath order."""
    if n > 4:
        raise ValueError("full enumeration is desk-scale only (n <= 4)")
    size = _order(n)
    return _orbits(_conjugation_tables(n), size, range(size))


def conjugacy_classes(n: int) -> list[list[tuple]]:
    """Orbits of G(n) under conjugation by the generators, refined over
    element indices; each class is sorted, classes in wreath order."""
    orbits = _class_orbits(n)  # refuses n > 4 before anything is built
    elems = _elements(n)
    return [sorted(elems[i] for i in orbit) for orbit in orbits]


def class_count(n: int) -> int:
    """The number of conjugacy classes of G(n): the conjugation orbits of
    the whole enumerated group, counted as walked; no class is sorted or
    turned back into permutations."""
    return len(_class_orbits(n))


# ---------------------------------------------------------------------------
# The dihedral table


def _d4_classes():
    """The five classes of G(2) as index lists, ordered to match the stored
    table by the leaf action of a representative: identity, transpositions,
    the central double swap, four-cycles, the off-diagonal double swaps."""
    elems = _elements(2)
    cn = center_element(2)

    def classify(cls):
        rep = elems[cls[0]]
        moved = sum(1 for i in range(4) if rep[i] != i)
        if moved == 0:
            return 0
        if moved == 2:
            return 1
        if rep == cn:
            return 2
        if len(p_cycles(rep)) == 1:
            return 3
        return 4

    ordered = [None] * 5
    for cls in _class_orbits(2):
        ordered[classify(cls)] = cls
    if any(c is None for c in ordered):
        raise AssertionError("G(2) does not have the expected five classes")
    return ordered


D4_CHARACTERS = {
    "V": (2, 0, -2, 0, 0),
    "V+": (1, 1, 1, 1, 1),
    "V-": (1, 1, 1, -1, -1),
    "V-+": (1, -1, 1, -1, 1),
    "V--": (1, -1, 1, 1, -1),
}

D4_PERMUTATION_ROW = (4, 2, 0, 0, 0)  # k[D4/H] for H = {e, (34)}


def _char_inner(classes, chi1, chi2) -> Fraction:
    order = sum(len(c) for c in classes)
    total = Fraction(0)
    for cls, a, b in zip(classes, chi1, chi2):
        total += len(cls) * Fraction(a) * Fraction(b)
    return total / order


def _conjugates_in(classes, subgroup: set) -> list[list[int]]:
    """Per class, with g its first element: x^-1 g x for each x in G,
    kept when it lies in the subgroup (repeats included)."""
    elems = [x for cls in classes for x in cls]
    out = []
    for cls in classes:
        conjugates = (_product(2, _inverse(2, x), _product(2, cls[0], x)) for x in elems)
        out.append([c for c in conjugates if c in subgroup])
    return out


def _induced_character(hits, subgroup_order: int, sub_char) -> tuple:
    """chi_Ind(g) = (1/|H|) sum over x in G with x^-1 g x in H of
    chi(x^-1gx), over the conjugates `_conjugates_in` keeps."""
    return tuple(sum(map(Fraction, map(sub_char, row)), Fraction(0)) / subgroup_order
                 for row in hits)


def d4_table_check(seed: int = 0) -> dict:
    classes = _d4_classes()
    report = {}
    report["class_sizes"] = [len(c) for c in classes]
    report["classes_ok"] = sorted(report["class_sizes"]) == [1, 1, 2, 2, 2]

    chars = D4_CHARACTERS
    names = list(chars)
    # orthogonality: the five rows are orthonormal
    ortho = all(
        _char_inner(classes, chars[a], chars[b]) == (1 if a == b else 0)
        for a in names
        for b in names
    )
    report["orthogonality_ok"] = ortho
    report["sum_of_squares_ok"] = sum(chars[a][0] ** 2 for a in names) == 8

    # permutation character of D4/H for H = {e, (34)}: the cosets x H
    # that g fixes, for g a representative of each class
    H = {index_of((0, 1, 2, 3)), index_of((0, 1, 3, 2))}
    cosets = {frozenset(_product(2, x, h) for h in H) for cls in classes for x in cls}
    perm_char = tuple(
        sum(frozenset(_product(2, cls[0], x) for x in coset) == coset
            for coset in cosets)
        for cls in classes)
    report["perm_char"] = perm_char
    report["perm_char_ok"] = perm_char == D4_PERMUTATION_ROW
    want = tuple(
        chars["V"][i] + chars["V+"][i] + chars["V-"][i] for i in range(5)
    )
    report["perm_decomposition_ok"] = perm_char == want

    # tensor decompositions
    vv = tuple(chars["V"][i] * chars["V"][i] for i in range(5))
    four = tuple(
        chars["V+"][i] + chars["V-"][i] + chars["V-+"][i] + chars["V--"][i]
        for i in range(5)
    )
    report["tensor_square_ok"] = vv == four
    vvm = tuple(chars["V"][i] * chars["V-"][i] for i in range(5))
    report["v_times_sign_ok"] = vvm == chars["V"]

    # induction-restriction: Ind(Res M) = Ind(1) (x) M at character level
    rng = random.Random(seed)
    indres_ok = True
    subgroups = [H, {index_of(p) for p in
                     ((0, 1, 2, 3), (1, 0, 2, 3), (0, 1, 3, 2), (1, 0, 3, 2))}]
    for subgroup in subgroups:
        hits = _conjugates_in(classes, subgroup)
        ind1 = _induced_character(hits, len(subgroup), lambda h: 1)
        for _ in range(5):
            virt = [rng.randint(-3, 3) for _ in names]
            chi_m = tuple(
                sum(virt[j] * chars[nm][i] for j, nm in enumerate(names))
                for i in range(5)
            )
            lhs = _induced_character(
                hits, len(subgroup),
                lambda h, cm=chi_m: _value_at(classes, cm, h),
            )
            rhs = tuple(ind1[i] * chi_m[i] for i in range(5))
            if lhs != rhs:
                indres_ok = False
    report["ind_res_ok"] = indres_ok

    report["ok"] = all(
        report[k] for k in (
            "classes_ok", "orthogonality_ok", "sum_of_squares_ok",
            "perm_char_ok", "perm_decomposition_ok", "tensor_square_ok",
            "v_times_sign_ok", "ind_res_ok",
        )
    )
    return report


def _value_at(classes, char_tuple, g):
    for cls, val in zip(classes, char_tuple):
        if g in cls:
            return val
    raise KeyError(f"{cycle_string(_elements(2)[g])} not in any class")


# ---------------------------------------------------------------------------
# Labeled-tree count of irreducible representations


def oor_irrep_count(n: int) -> int:
    """Isomorphism classes of sign-labeled depth-(n-1) trees.

    A minus at a vertex forces its two subtrees to be identical (as
    classes); a plus allows an unordered pair.  count(1) = 2 and
    count(n) = k(k-1)/2 + 2k for k = count(n-1).
    """
    if n < 1:
        raise ValueError("n >= 1")
    count = 2
    for _ in range(n - 1):
        count = count * (count - 1) // 2 + 2 * count
    return count


def oor_count_cross_check(n: int) -> dict:
    trees = oor_irrep_count(n)
    classes = class_count(n)
    return {"tree_count": trees, "class_count": classes, "ok": trees == classes}
