"""Acceptance criteria, one test per criterion, exact equalities throughout.

Each test prints a single PASS/FAIL line (visible with -s or -rA) and
asserts both the mathematical statements and its wall-clock budget.
"""

import random
import time
from fractions import Fraction

from foamlib.exactalg import UniPoly, parse_unipoly, smallest_irreducible
from foamlib.exactalg.multipoly import MultiPoly
from foamlib.exactalg.scalars import QQ_DOMAIN, zmod
from foamlib.fieldext import (
    FiniteFieldTower,
    nilpotent_square_algebra,
    scaling_automorphism,
)
from foamlib.mftrace import (
    JacobiAlgebra,
    handle_is_hessian,
    hessian_relation_check,
    jacobi_idempotent_traces,
)
from foamlib.surfgen import random_surface
from foamlib.sylfoam import (
    alphabet,
    diagram_sylvester,
    overlap_matches_polynomial,
    sylvester_double_sum,
    sylvester_side,
    verify_chen_louck,
    verify_dksv,
    verify_exchange,
)
from foamlib.tqft2d import (
    DecoratedSurface,
    Facet,
    Seam,
    evaluate_coloring,
    evaluate_neck,
    genus2_three_defects,
    seamed_sphere,
    skein_rewrite_check,
    sphere_with_defect,
    torus_with_defect,
)
from foamlib.webgal import multinomial, q_multinomial, web_decomposition
from foamlib.wreathrep import (
    central_element_checks,
    d4_table_check,
    epm_idempotent_check,
    group_facts,
    mackey_orbit_check,
    oor_count_cross_check,
    oor_irrep_count,
)


def _report(name: str, ok: bool, budget_s: float, elapsed: float):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {name}: {status}  ({elapsed:.1f}s / budget {budget_s:.0f}s)")
    assert ok, name
    assert elapsed < budget_s, f"{name} exceeded its {budget_s}s budget"


def test_criterion_1_torus_sigma():
    t0 = time.monotonic()
    alg = nilpotent_square_algebra()
    sigma = scaling_automorphism(alg, 3)
    value = evaluate_neck(torus_with_defect(alg, 0, sigma))
    lam = Fraction(3)
    ok = value == Fraction(16, 3) == lam + 2 + 1 / lam
    _report("1 torus-with-sigma = 16/3", ok, 1.0, time.monotonic() - t0)


def test_criterion_2_evaluator_equivalence():
    t0 = time.monotonic()
    tower = FiniteFieldTower(3, [1, 2, 4])
    rng = random.Random(20260808)
    ok = True
    count = 0

    def agree(s):
        return evaluate_neck(s) == evaluate_coloring(s)

    # the genus-two, three-defect family at the top level
    for k1 in range(4):
        for k2 in range(4):
            for k3 in range(2):
                s = genus2_three_defects(
                    tower, 2,
                    tower.frobenius_automorphism(2, k1),
                    tower.frobenius_automorphism(2, k2),
                    tower.frobenius_automorphism(2, k3),
                )
                ok = ok and agree(s)
                count += 1
    # seamed spheres with random dots (the two-level evaluation rule)
    for _ in range(20):
        a = tower.random_element(1, rng)
        b = tower.random_element(2, rng)
        s = seamed_sphere(tower, 1, 2, a, b)
        ok = ok and agree(s)
        count += 1
    while count < 200:
        s = random_surface(tower, rng)
        ok = ok and agree(s)
        count += 1
    _report(f"2 evaluator equivalence on {count} surfaces", ok, 60.0,
            time.monotonic() - t0)


def test_criterion_3_skein_suite():
    t0 = time.monotonic()
    tower = FiniteFieldTower(3, [1, 2, 4])
    from foamlib.surfgen import random_surface_with_pattern

    ok = True
    for pattern in ("remove_f_disk", "remove_k_disk", "push_dot",
                    "merge_k_boundaries"):
        rng = random.Random(500 + len(pattern))
        for _ in range(50):
            s = random_surface_with_pattern(tower, rng, pattern)
            ok = ok and skein_rewrite_check(pattern, s)

    # defect-circle merging on a closed chain of disks
    rng = random.Random(7)
    for k1 in range(4):
        for k2 in range(4):
            s1 = tower.frobenius_automorphism(2, k1)
            s2 = tower.frobenius_automorphism(2, k2)
            x = tower.random_element(2, rng)
            y = tower.random_element(2, rng)
            two = DecoratedSurface(tower, (
                Facet("d1", 0, 2, (x,), ("a",)),
                Facet("mid", 0, 2, (), ("b1", "b2")),
                Facet("d2", 0, 2, (y,), ("c",)),
            ), (
                Seam("defect", ("d1", "a"), ("mid", "b1"), s1),
                Seam("defect", ("mid", "b2"), ("d2", "c"), s2),
            ))
            one = sphere_with_defect(tower, 2, s1.compose(s2), x, y)
            ok = ok and evaluate_neck(two) == evaluate_neck(one)

    # coorientation flip, identity-circle removal, the sphere trace formula
    for k in range(4):
        sig = tower.frobenius_automorphism(2, k)
        for _ in range(5):
            x = tower.random_element(2, rng)
            y = tower.random_element(2, rng)
            fwd = DecoratedSurface(tower, (
                Facet("p", 0, 2, (x,), ("a",)), Facet("q", 0, 2, (y,), ("b",))
            ), (Seam("defect", ("p", "a"), ("q", "b"), sig),))
            rev = DecoratedSurface(tower, (
                Facet("p", 0, 2, (x,), ("a",)), Facet("q", 0, 2, (y,), ("b",))
            ), (Seam("defect", ("q", "b"), ("p", "a"), sig.inverse()),))
            v = evaluate_neck(fwd)
            ok = ok and v == evaluate_neck(rev)
            ok = ok and v == tower.trace_to_ground(
                2, tower.mul(2, sig(y), x)
            )
            ok = ok and v == tower.trace_to_ground(
                2, tower.mul(2, y, sig.inverse()(x))
            )
    ident = tower.frobenius_automorphism(2, 0)
    for _ in range(5):
        x = tower.random_element(2, rng)
        facets = (Facet("p", 1, 2, (x,), ("a",)), Facet("q", 0, 2, (), ("b",)))
        with_id = DecoratedSurface(
            tower, facets, (Seam("defect", ("p", "a"), ("q", "b"), ident),))
        with_plain = DecoratedSurface(
            tower, facets, (Seam("plain", ("p", "a"), ("q", "b")),))
        ok = ok and evaluate_neck(with_id) == evaluate_neck(with_plain)
    _report("3 skein suite (rewrites + circle relations)", ok, 120.0,
            time.monotonic() - t0)


def test_criterion_4_sylvester_suite():
    t0 = time.monotonic()
    ok = True
    # degree bound and foam agreement, m, n <= 4
    for m in range(1, 5):
        for n in range(1, 5):
            A, B = alphabet("A", m), alphabet("B", n)
            for p in range(m + 1):
                for q in range(n + 1):
                    syl = sylvester_double_sum(A, B, p, q)
                    ok = ok and syl.degree_in("x") <= p + q
                    ok = ok and overlap_matches_polynomial(
                        diagram_sylvester(A, B, p, q), sylvester_side(A, B, p, q))
    # exchange: symbolic proof m, n <= 4; deterministic grids m, n <= 5
    for m in range(1, 5):
        for n in range(1, 5):
            ok = ok and all(e["ok"] for e in verify_exchange(m, n, "symbolic"))
    for m in range(1, 6):
        for n in range(1, 6):
            ok = ok and all(e["ok"] for e in verify_exchange(m, n, "grid"))
    # Chen-Louck for m <= 5 (default dot e_(m-d)) symbolic, and m = 5 on
    # the grid too, plus Lagrange cases; d = 0 forces a constant dot, where
    # the identity is vacuous
    for m in range(1, 6):
        for d in range(1, m + 1):
            ok = ok and verify_chen_louck(m, d)["ok"]
    for d in range(1, 6):
        ok = ok and verify_chen_louck(5, d, mode="grid")["ok"]
    lagrange = MultiPoly.var("s1") * MultiPoly.var("s1") + MultiPoly.const(3)
    ok = ok and verify_chen_louck(3, 2, lagrange)["ok"]
    # the three-alphabet partition identity for |E| <= 5, 123 cases, each
    # proved symbolically and checked on the grid
    for se in range(2, 6):
        for m in range(1, 4):
            for n in range(1, 4):
                for d in range(0, m + 1):
                    for sx in (1, 2):
                        if se >= max(sx + d, m + n - d, m):
                            for mode in ("symbolic", "grid"):
                                ok = ok and verify_dksv(m, n, d, sx, se, mode)["ok"]
    _report("4 sylvester suite", ok, 300.0, time.monotonic() - t0)


def test_criterion_5_appendix_suite():
    t0 = time.monotonic()
    ok = True
    rng = random.Random(10)
    # Hessian relation as an identity of linear maps, QQ and GF(3), GF(5)
    qq_cases = ["x^2 - 2", "x^3 - x - 1", "x^4 + x + 1", "x^5 - x - 1",
                "x^6 - x - 1"]
    for text in qq_cases:
        J = JacobiAlgebra(parse_unipoly(text, QQ_DOMAIN))
        ok = ok and hessian_relation_check(J, trials=5)["ok"]
        ok = ok and handle_is_hessian(J)
    for p in (3, 5):
        dom = zmod(p)
        for deg in range(2, 7):
            found = 0
            attempts = 0
            while found < 3 and attempts < 200:
                attempts += 1
                coeffs = [rng.randrange(p) for _ in range(deg)] + [1]
                f = UniPoly.from_ints(dom, coeffs)
                try:
                    J = JacobiAlgebra(f)
                except Exception:
                    continue
                found += 1
                ok = ok and hessian_relation_check(J, trials=5)["ok"]
                ok = ok and handle_is_hessian(J)
    # idempotent traces over finite fields: tr_G(e_k) = 1/f'(L_k),
    # extended field trace 1 (checked inside jacobi_idempotent_traces)
    for p, text, mdeg in [(2, "x^2 + x + 1", 2), (2, "x^3 + x + 1", 3),
                          (3, "x^2 + 1", 2), (5, "x^3 + x + 1", 6)]:
        J = JacobiAlgebra(parse_unipoly(text, zmod(p)))
        pairs = jacobi_idempotent_traces(J, mdeg)
        ok = ok and len(pairs) == J.dimension
    _report("5 appendix suite (residue trace)", ok, 30.0, time.monotonic() - t0)


def test_criterion_6_wreath_suite():
    t0 = time.monotonic()
    ok = True
    for n in (1, 2, 3, 4):
        rep = group_facts(n)
        ok = ok and rep["order_ok"] and rep["order"] == 2 ** (2**n - 1)
        ok = ok and rep["center_ok"] and rep["coset_ok"] and rep["twist_ok"]
    for n in (2, 3, 4):
        ok = ok and mackey_orbit_check(n)["ok"]
        ok = ok and central_element_checks(n)["ok"]
    for n in (1, 2, 3):
        ok = ok and epm_idempotent_check(n)["ok"]
    ok = ok and d4_table_check()["ok"]
    ok = ok and [oor_irrep_count(n) for n in (1, 2, 3, 4)] == [2, 5, 20, 230]
    for n in (1, 2, 3, 4):
        ok = ok and oor_count_cross_check(n)["ok"]
    _report("6 wreath suite", ok, 180.0, time.monotonic() - t0)


def test_criterion_7_web_suite():
    t0 = time.monotonic()
    ok = True

    def compositions(N):
        if N == 0:
            yield ()
            return
        for first in range(1, N + 1):
            for rest in compositions(N - first):
                yield (first,) + rest

    for N in range(1, 7):
        for comp in compositions(N):
            qm = q_multinomial(N, comp)
            ok = ok and qm.is_palindromic()
            ok = ok and qm.at_q1() == multinomial(N, comp)
    for p in (2, 3):
        for N in range(1, 6):
            f = smallest_irreducible(p, N)
            for comp in compositions(N):
                dec = web_decomposition(f, comp)
                ok = ok and dec.total_dimension == multinomial(N, comp)
    fact = [1, 1, 2, 6]
    for N in (2, 3, 4):
        f = smallest_irreducible(2, N)
        dec = web_decomposition(f, (1,) * N)
        ok = ok and dec.factors == ((N, fact[N - 1]),)
    _report("7 web suite", ok, 30.0, time.monotonic() - t0)
