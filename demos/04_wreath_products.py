#!/usr/bin/env python3
"""Iterated wreath products of S2 as binary-tree symmetries.

Orders, centers, coset and Mackey structure, central group-algebra
elements, the dihedral character table, and the labeled-tree count of
irreducible representations.
"""

from foamlib.wreathrep import (
    D4_CHARACTERS,
    all_elements,
    beta_perm,
    central_element_checks,
    conjugacy_classes,
    cycle_string,
    d4_table_check,
    epm_idempotent_check,
    group_facts,
    index_of,
    mackey_orbit_check,
    oor_count_cross_check,
    oor_irrep_count,
)

# ---------------------------------------------------------------------------
# An element of G(n) is an index in wreath order: r*M^2 + i*M + j, with
# M = |G(n-1)|, is beta^r o (a x b), the branch swap beta after a on the
# first half of the leaves and b on the second.  A leaf permutation enters
# through index_of and leaves by decoding; at depth 2 beta is (13)(24).

beta2 = index_of(beta_perm(2))
print("root swap at depth 2: index", beta2, "=", cycle_string(all_elements(2)[beta2]))

# ---------------------------------------------------------------------------
# Orders are 2^(2^n - 1); the center has order two; the group splits into
# two cosets along G(n-1) x G(n-1), with the branch swap exchanging the
# factors.

for n in (1, 2, 3):
    rep = group_facts(n)
    print(f"G({n}): order {rep['order']},",
          "center ok," if rep["center_ok"] else "center BAD,",
          "cosets ok" if rep["coset_ok"] else "cosets BAD")

# Restriction-induction through the index-two subgroup decomposes into
# the identity and the factor-swap twist: two double cosets of size |H|.

print("Mackey orbits at n=3:", mackey_orbit_check(3)["orbit_sizes"])

# ---------------------------------------------------------------------------
# Central elements from bubbles: the center generator c_n, the one-dot
# bubble c^(1) + c^(2), and the depth-two bubble with four dots.

print("central element checks at n=3:", central_element_checks(3)["ok"])
print("e_+/e_- idempotent relations at n=3:", epm_idempotent_check(3)["ok"])

# ---------------------------------------------------------------------------
# G(2) is the dihedral group of the square.  Its five irreducible
# characters are stored as data and verified: orthogonality, the
# permutation module k[D4/H] = V + V+ + V-, the tensor square of V, and
# the projection formula for induction-restriction.

print("dihedral table verification:", d4_table_check()["ok"])
print("character of V:", D4_CHARACTERS["V"])

# ---------------------------------------------------------------------------
# Irreducible representations are counted by sign-labeled binary trees: a
# minus vertex forces identical subtrees, a plus takes an unordered pair.
# The counts 2, 5, 20, 230 equal the conjugacy-class counts.

print("tree counts:", [oor_irrep_count(n) for n in (1, 2, 3, 4)])
print("class counts:", [len(conjugacy_classes(n)) for n in (1, 2, 3)])
print("cross-check at n=4:", oor_count_cross_check(4))
