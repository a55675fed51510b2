"""The four workloads: job lists built from a seed.

A job is one call into foamlib that yields one answer.  Its check runs
after the timed call, with tracing off, and compares the answer with the
oracles in oracles.py or with a second, independent route of the
program.  Jobs and their order are fixed per workload; the seed picks the
evaluation points, the dots of the surfaces, the defect scalars and
automorphisms, and the polynomials traced by `mf trace`, so the work a
job does stays nearly the same from seed to seed.

A job with `known_fault` set exercises a fault the program has today.
When its check fails the job counts as failed, not as a wrong answer;
when the fault is mended it simply passes.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import partial
from pathlib import Path
from typing import Callable

import oracles as O

WORKLOADS = ("identity-symbolic", "identity-grid", "surfaces", "cli")


@dataclass
class Job:
    name: str
    call: Callable[[], object]
    check: Callable[[object], bool]
    known_fault: str = ""


def build(workload: str, seed: int, workdir: Path) -> list[Job]:
    """The workload's jobs, in the same order for every seed: an order that
    moved with the seed would move which jobs find their sums already in
    foamlib's caches."""
    return BUILDERS[workload](random.Random(f"{workload}:{seed}"), workdir)


# ---------------------------------------------------------------------------
# identity workloads: shared checks

# At most this many terms are also read through the public MultiPoly.eval;
# larger polynomials are read from their term mapping (see oracles.poly_value).
EVAL_TERMS = 1000


def _poly_matches(poly, point, expected) -> bool:
    if O.poly_value(poly.terms, point) != expected:
        return False
    return len(poly.terms) > EVAL_TERMS or poly.eval(point) == expected


def _exchange_terms_match(S, A, B, X, d, point) -> bool:
    """evaluate_terms_at on the program's Exchange terms against the oracle."""
    lhs, rhs = S.exchange_sides_terms(A, B, X, d)
    want = O.exchange(point, A.variables, B.variables, X.variables, d)
    got = (S.evaluate_terms_at(lhs(), point), S.evaluate_terms_at(rhs(), point))
    return got == want and want[0] == want[1]


def _check_exchange(S, m, n, points, report) -> bool:
    if [e["d"] for e in report] != list(range(min(m, n) + 1)):
        return False
    if not all(e["ok"] for e in report):
        return False
    A, B = S.alphabet("A", m), S.alphabet("B", n)
    for d, point in zip(range(min(m, n) + 1), points):
        X = S.alphabet("X", m + n - 2 * d)
        if not _exchange_terms_match(S, A, B, X, d, point):
            return False
    return True


def _exchange_points(S, rng, m, n):
    out = []
    for d in range(min(m, n) + 1):
        names = (S.alphabet("A", m).variables + S.alphabet("B", n).variables
                 + S.alphabet("X", m + n - 2 * d).variables)
        out.append(O.sample_point(rng, names))
    return out


def _check_chen_louck(S, m, d, point, report) -> bool:
    if not report["ok"]:
        return False
    from foamlib.exactalg.multipoly import esym

    k = m - d
    A, X = S.alphabet("A", m), S.alphabet("X", k)
    lhs_value, rhs = S.chen_louck_sides(A, X, d, esym(S.slots(k), k))
    want = O.chen_louck(point, A.variables, X.variables, d)
    got = (lhs_value.eval(point), S.evaluate_terms_at(rhs(), point))
    return got == want and want[0] == want[1]


def _control_sides(S, m, n, d):
    """Exchange sides with one X-variable more than the identity allows."""
    A, B = S.alphabet("A", m), S.alphabet("B", n)
    X = S.alphabet("X", m + n - 2 * d + 1)
    return A, B, X


def _control_points(S, rng, m, n, d, count=3):
    A, B, X = _control_sides(S, m, n, d)
    return [O.sample_point(rng, A.variables + B.variables + X.variables)
            for _ in range(count)]


def _oracle_control(S, m, n, d, points):
    A, B, X = _control_sides(S, m, n, d)
    return [O.exchange(pt, A.variables, B.variables, X.variables, d)
            for pt in points]


# The negative controls: (m, n, d) with d >= 1, where the sides differ.
SYMBOLIC_CONTROLS = ((2, 2, 1), (3, 2, 1), (3, 3, 1), (3, 3, 2))
GRID_CONTROLS = ((2, 2, 1), (3, 3, 1), (4, 4, 2), (5, 5, 2))


# ---------------------------------------------------------------------------
# identity-symbolic


def identity_symbolic(rng: random.Random, workdir: Path) -> list[Job]:
    from foamlib import sylfoam as S
    from foamlib.exactalg.multipoly import MultiPoly

    jobs = []
    # Sylvester double sums, m, n <= 4 and every (p, q) but one.  Syl_{4,4}
    # at p = q = 4 is left out: alone it takes 21 s of a 42 s round and
    # 470 MB, which would make every run of this workload twice as long.
    # The other m = n = 4 sums, up to 4.7 s each, keep the tail.
    for m in range(5):
        for n in range(5):
            A, B = S.alphabet("A", m), S.alphabet("B", n)
            for p in range(m + 1):
                for q in range(n + 1):
                    if (m, n, p, q) == (4, 4, 4, 4):
                        continue
                    point = O.sample_point(rng, A.variables + B.variables + ("x",))

                    def check(poly, A=A, B=B, p=p, q=q, point=point):
                        want = O.sylvester(point, A.variables, B.variables, p, q)
                        return (poly.degree_in("x") <= p + q
                                and _poly_matches(poly, point, want))

                    jobs.append(Job(f"sylvester m={m} n={n} p={p} q={q}",
                                    partial(S.sylvester_double_sum, A, B, p, q),
                                    check))
    # symbolic Exchange, m, n <= 3
    for m in range(4):
        for n in range(4):
            points = _exchange_points(S, rng, m, n)
            jobs.append(Job(f"exchange m={m} n={n} symbolic",
                            partial(S.verify_exchange, m, n, "symbolic"),
                            partial(_check_exchange, S, m, n, points)))
    # symbolic Chen-Louck, m <= 4 (d = 0 has no default dot polynomial)
    for m in range(1, 5):
        for d in range(1, m + 1):
            point = O.sample_point(rng, S.alphabet("A", m).variables
                                   + S.alphabet("X", m - d).variables)
            jobs.append(Job(f"chen-louck m={m} d={d} symbolic",
                            partial(S.verify_chen_louck, m, d),
                            partial(_check_chen_louck, S, m, d, point)))
    # overlap diagrams: Sylvester foams, m, n <= 3
    for m in range(1, 4):
        for n in range(1, 4):
            A, B = S.alphabet("A", m), S.alphabet("B", n)
            for p in range(m + 1):
                for q in range(n + 1):
                    point = O.sample_point(rng, A.variables + B.variables + ("x",))
                    want = O.sylvester(point, A.variables, B.variables, p, q)
                    jobs.append(Job(
                        f"overlap sylvester m={m} n={n} p={p} q={q}",
                        partial(S.evaluate_overlap, S.diagram_sylvester(A, B, p, q)),
                        partial(_poly_matches, point=point, expected=want)))
    # overlap diagrams: both sides of the Exchange identity, m, n <= 3
    for m in range(1, 4):
        for n in range(1, 4):
            for d in range(min(m, n) + 1):
                A, B = S.alphabet("A", m), S.alphabet("B", n)
                X = S.alphabet("X", m + n - 2 * d)
                point = O.sample_point(rng, A.variables + B.variables + X.variables)
                want = O.exchange(point, A.variables, B.variables, X.variables, d)
                for side, diagram in zip((0, 1), S.diagram_exchange_sides(A, B, X, d)):
                    jobs.append(Job(
                        f"overlap exchange m={m} n={n} d={d} side={side}",
                        partial(S.evaluate_overlap, diagram),
                        partial(_poly_matches, point=point, expected=want[side])))
    # overlap diagrams: both sides of the product formula for e_(m-d)
    for m in range(2, 5):
        for d in range(1, m):
            A, X = S.alphabet("A", m), S.alphabet("X", m - d)
            point = O.sample_point(rng, A.variables + X.variables)
            want = O.chen_louck(point, A.variables, X.variables, d)
            for side, diagram in zip((0, 1), S.diagram_product_formula_sides(A, X, d)):
                jobs.append(Job(
                    f"overlap product-formula m={m} d={d} side={side}",
                    partial(S.evaluate_overlap, diagram),
                    partial(_poly_matches, point=point, expected=want[side])))
    # negative controls: the engine must tell the two sides apart
    for m, n, d in SYMBOLIC_CONTROLS:
        A, B, X = _control_sides(S, m, n, d)
        points = _control_points(S, rng, m, n, d)

        def control(A=A, B=B, X=X, d=d):
            lhs, rhs = S.exchange_sides_terms(A, B, X, d)
            deltas = [A.variables, B.variables]
            return S.fraction_free_sum(lhs(), deltas), S.fraction_free_sum(rhs(), deltas)

        def refuted(sides, m=m, n=n, d=d, points=points):
            want = _oracle_control(S, m, n, d, points)
            return (sides[0] != sides[1]
                    and any(w[0] != w[1] for w in want)
                    and all(O.poly_value(sides[0].terms, pt) == w[0]
                            and O.poly_value(sides[1].terms, pt) == w[1]
                            for pt, w in zip(points, want)))

        jobs.append(Job(f"control exchange m={m} n={n} d={d} |X|+1 symbolic",
                        control, refuted))
    # known fault: 8-bit packed exponents wrap, s1^(127+127+5) comes back as x1^3
    s1 = MultiPoly.var("s1")
    X1 = S.alphabet("X", 1)
    diagram = S.OverlapDiagram(
        (("X", S.MaxSurface(X1, dots=(s1 ** 127, s1 ** 127, s1 ** 5))),), ())
    point = O.sample_point(rng, X1.variables)
    jobs.append(Job("overlap dots s1^127 s1^127 s1^5",
                    partial(S.evaluate_overlap, diagram),
                    partial(_poly_matches, point=point,
                            expected=Fraction(point["x1"] ** 259)),
                    known_fault="packed-exponent overflow in sylfoam"))
    return jobs


# ---------------------------------------------------------------------------
# identity-grid


def _dksv_sizes():
    """Valid (m, n, d, |X|, |E|) with |E| tight, |E| = max(|X|+d, m+n-d, m):
    all of them for |E| <= 4, and for |E| = 5 those with d = 0 or d = m."""
    out = []
    for se in range(6):
        for m in range(se + 1):
            for n in range(se + 1):
                for d in range(m + 1):
                    for sx in range(se + 1):
                        if se != max(sx + d, m + n - d, m):
                            continue
                        if se == 5 and 0 < d < m:
                            continue
                        out.append((m, n, d, sx, se))
    return out


def _check_dksv(S, size, point, report) -> bool:
    if not report["ok"]:
        return False
    m, n, d, sx, se = size
    A, B = S.alphabet("A", m), S.alphabet("B", n)
    X, E = S.alphabet("X", sx), S.alphabet("E", se)
    lhs, rhs = S.dksv_sides(A, B, X, E, d)
    want = O.dksv(point, A.variables, B.variables, X.variables, E.variables, d)
    got = (S.evaluate_terms_at(lhs(), point), S.evaluate_terms_at(rhs(), point))
    return got == want and want[0] == want[1]


def identity_grid(rng: random.Random, workdir: Path) -> list[Job]:
    from foamlib import sylfoam as S

    jobs = []
    for m in range(6):
        for n in range(6):
            points = _exchange_points(S, rng, m, n)
            jobs.append(Job(f"exchange m={m} n={n} grid",
                            partial(S.verify_exchange, m, n, "grid"),
                            partial(_check_exchange, S, m, n, points)))
    for size in _dksv_sizes():
        m, n, d, sx, se = size
        point = O.sample_point(rng, S.alphabet("A", m).variables
                               + S.alphabet("B", n).variables
                               + S.alphabet("X", sx).variables
                               + S.alphabet("E", se).variables)
        jobs.append(Job(f"dksv m={m} n={n} d={d} |X|={sx} |E|={se} grid",
                        partial(S.verify_dksv, m, n, d, sx, se, "grid"),
                        partial(_check_dksv, S, size, point)))
    for d in range(1, 6):
        point = O.sample_point(rng, S.alphabet("A", 5).variables
                               + S.alphabet("X", 5 - d).variables)
        jobs.append(Job(f"chen-louck m=5 d={d} grid",
                        partial(S.verify_chen_louck, 5, d, mode="grid"),
                        partial(_check_chen_louck, S, 5, d, point)))
    # negative controls: evaluate_terms_at must tell the sides apart
    for m, n, d in GRID_CONTROLS:
        A, B, X = _control_sides(S, m, n, d)
        points = _control_points(S, rng, m, n, d)

        def control(A=A, B=B, X=X, d=d, points=points):
            lhs, rhs = S.exchange_sides_terms(A, B, X, d)
            return [(S.evaluate_terms_at(lhs(), pt), S.evaluate_terms_at(rhs(), pt))
                    for pt in points]

        def refuted(values, m=m, n=n, d=d, points=points):
            want = _oracle_control(S, m, n, d, points)
            return values == want and any(v[0] != v[1] for v in values)

        jobs.append(Job(f"control exchange m={m} n={n} d={d} |X|+1 grid",
                        control, refuted))
    return jobs


# ---------------------------------------------------------------------------
# surfaces

# Seam-sweep repeats per seam count.  They put the 90th percentile of the
# 494 jobs inside the 48 three-seam state sums: of the 49 jobs above it,
# 26 are the sums with 4-6 seams, about nine are skein checks and small
# surfaces of 40-130 ms, and the rest are the dearest three-seam sums.
# Four-seam sums were tried there first; their cost moves by up to 40 %
# with the seeded elements, and the percentile moved with them.
SWEEP_REPEATS = {2: 16, 3: 24, 4: 8, 5: 4, 6: 1}


def surfaces(rng: random.Random, workdir: Path) -> list[Job]:
    from foamlib import tqft2d as T
    from foamlib.fieldext import (FiniteFieldTower, make_backend,
                                  nilpotent_square_algebra, scaling_automorphism)
    from foamlib.surfgen import random_surface, random_surface_with_pattern

    tower = FiniteFieldTower(3, [1, 2, 4])
    fields = [
        make_backend({"kind": "numberfield", "f": "x^2-2", "roots": ["x", "-x"]}),
        make_backend({"kind": "numberfield", "f": "x^3-3*x+1",
                      "roots": ["x", "x^2-2", "-x^2-x+2"]}),
    ]
    table = nilpotent_square_algebra()
    for be in [tower, table] + fields:
        for level in range(be.num_levels):
            be.dual_bases(level)

    def agrees(s, value) -> bool:
        return value == T.evaluate_coloring(s)

    # Many small surfaces with at most two seams; their median cost sets
    # job_p50_ms.  Their costs are so uneven (a coefficient of variation
    # near 4) that the median of 280 fresh surfgen draws moves by a tenth
    # from seed to seed.  So the shapes (facets, genus, levels, seams) come
    # from a fixed generator, and the seed redraws every dot.
    shapes = random.Random("surfaces:shapes")

    def dotted(be, s):
        facets = tuple(replace(f, dots=tuple(be.random_element(f.level, rng)
                                             for _ in f.dots))
                       for f in s.facets)
        return replace(s, facets=facets)

    jobs = []
    for i in range(280):
        s = dotted(tower, random_surface(tower, shapes, max_seams=2))
        jobs.append(Job(f"tower surface {i}", partial(T.evaluate_neck, s),
                        partial(agrees, s)))
    for be, label in zip(fields, ("Q(sqrt2)", "Q(cubic)")):
        for i in range(24):
            s = dotted(be, random_surface(be, shapes, max_seams=2))
            jobs.append(Job(f"{label} surface {i}", partial(T.evaluate_neck, s),
                            partial(agrees, s)))
    # two top-level facets joined by k seams: the state sum has 4^k terms
    top = tower.num_levels - 1
    for k, repeats in SWEEP_REPEATS.items():
        for rep in range(repeats):
            for kind in ("plain", "defect"):
                f1 = T.Facet("f1", 0, top, (tower.random_element(top, rng),),
                             tuple(f"a{i}" for i in range(k)))
                f2 = T.Facet("f2", rep % 2, top,
                             (tower.random_element(top, rng),),
                             tuple(f"b{i}" for i in range(k)))
                seams = tuple(
                    T.Seam(kind, ("f1", f"a{i}"), ("f2", f"b{i}"),
                           tower.frobenius_automorphism(top, rng.randrange(1, 4))
                           if kind == "defect" else None)
                    for i in range(k))
                s = T.DecoratedSurface(tower, (f1, f2), seams)
                jobs.append(Job(f"sweep {kind} seams={k} rep={rep}",
                                partial(T.evaluate_neck, s), partial(agrees, s)))
    # torus with a scaling defect on k[a,b]/(a^2,b^2): lambda + 2 + 1/lambda
    for i in range(20):
        lam = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))
        s = T.torus_with_defect(table, 0, scaling_automorphism(table, lam))
        jobs.append(Job(f"table torus lambda={lam}", partial(T.evaluate_neck, s),
                        lambda v, lam=lam: v == lam + 2 + 1 / lam))
    # skein rewrites: both sides agree, and agree on the coloring route too
    for relation in T.REWRITE_RELATIONS:
        for i in range(10):
            s = dotted(tower, random_surface_with_pattern(tower, shapes, relation))

            def rewrite_holds(ok, relation=relation, s=s):
                t = T.skein_rewrite(relation, s)
                return ok is True and T.evaluate_coloring(s) == T.evaluate_coloring(t)

            jobs.append(Job(f"skein {relation} {i}",
                            partial(T.skein_rewrite_check, relation, s),
                            rewrite_holds))
    return jobs


# ---------------------------------------------------------------------------
# cli


def run_cli(argv) -> tuple[int, str]:
    """foamlib.cli.run in-process, with its output captured."""
    from foamlib import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.run(list(argv))
    return code, out.getvalue()


def _report(stdout: str) -> dict:
    """The last JSON document on stdout (`mf backend` prints two)."""
    dec = json.JSONDecoder()
    pos, doc = 0, None
    text = stdout.strip()
    while pos < len(text):
        doc, pos = dec.raw_decode(text, pos)
        while pos < len(text) and text[pos].isspace():
            pos += 1
    return doc


def _passes(result, value_of=None) -> bool:
    """Exit 0, every assertion PASS, and value_of(values by name) true."""
    code, stdout = result
    if code != 0:
        return False
    rep = _report(stdout)
    if not rep["ok"] or any(a["status"] != "PASS" for a in rep["assertions"]):
        return False
    values = {a["name"]: a["value"] for a in rep["assertions"]}
    return value_of is None or value_of(values)


def _exits_2(result) -> bool:
    return result[0] == 2


def cli_workload(rng: random.Random, workdir: Path) -> list[Job]:
    from foamlib import cli  # noqa: F401  (import is part of set-up)

    root = Path(__file__).resolve().parent.parent
    surfaces_dir = root / "demos" / "surfaces"
    jobs = []

    def add(argv, check, known_fault=""):
        argv = ["--json"] + argv
        jobs.append(Job("foamlib " + " ".join(argv), partial(run_cli, argv), check,
                        known_fault))

    for n in range(1, 5):
        add(["wreath", "facts", "-n", str(n)], partial(
            _passes, value_of=lambda v, n=n: v[f"order |G_{n}|"] == str(O.wreath_order(n))))
    for n in range(1, 5):
        add(["wreath", "classes", "-n", str(n)], partial(
            _passes, value_of=lambda v, n=n:
            v[f"conjugacy classes of G_{n}"] == str(O.class_count(n))))
    for n in range(1, 5):
        c = O.class_count(n)
        add(["wreath", "oor", "-n", str(n)], partial(
            _passes, value_of=lambda v, n=n, c=c:
            v[f"labeled trees = conjugacy classes at n={n}"] == f"{c} = {c}"))
    add(["wreath", "d4-table"], _passes)

    # residue traces: seeded polynomials p over QQ and GF(p)
    trace_fields = ((0, "x^2-2", [-2, 0, 1]), (0, "x^3-x-1", [-1, -1, 0, 1]),
                    (0, "x^4-5*x^2+6", [6, 0, -5, 0, 1]),
                    (5, "x^3+x+1", [1, 1, 0, 1]), (3, "x^2+1", [1, 0, 1]))
    for char, ftext, fco in trace_fields:
        for _ in range(4):
            pco = [rng.randint(-9, 9) for _ in range(rng.randint(1, 9))]
            pco[-1] = pco[-1] or 1
            want = O.residue_trace(pco, fco, char)
            ptext = O.render_poly(pco)
            # `--p=` form: a polynomial may start with a minus sign
            argv = ["mf", "trace", "--f", ftext, f"--p={ptext}"]
            if char:
                argv += ["--char", str(char)]
            add(argv, partial(_passes, value_of=lambda v, f=ftext, p=ptext, w=want:
                              Fraction(v[f"tr_G({p}) mod ({f})"]) == w))
    for ftext, char in (("x^3-x-1", 0), ("x^2-2", 0), ("x^4-5*x^2+6", 0),
                        ("x^3+x+1", 5), ("x^6+x+1", 5)):
        add(["mf", "hessian", "--f", ftext] + (["--char", str(char)] if char else []),
            _passes)
    for ftext, char in (("x^2-2", 0), ("x^3-x-1", 0), ("x^2+1", 3)):
        add(["mf", "backend", "--f", ftext] + (["--char", str(char)] if char else []),
            _passes)

    for N in range(1, 7):
        for parts in O.compositions(N):
            text = ",".join(map(str, parts))
            add(["web", "qmoy", "--N", str(N), "--parts", text], partial(
                _passes, value_of=lambda v, w=O.multinomial(parts):
                v["value at q=1"] == str(w)))
    for p, ftext, partss in ((2, "x^3+x+1", ((1, 1, 1), (1, 2), (2, 1), (3,))),
                             (3, "x^2+1", ((1, 1), (2,))),
                             (2, "x^4+x+1", ((1, 1, 1, 1), (2, 2), (1, 3)))):
        for parts in partss:
            add(["web", "decompose", "--p", str(p), "--f", ftext,
                 "--parts", ",".join(map(str, parts))], partial(
                _passes, value_of=lambda v, w=O.multinomial(parts):
                v["dimension total"] == str(w)))

    add(["tqft", "eval", "--surface", str(surfaces_dir / "torus_sigma.json")],
        partial(_passes, value_of=lambda v: v["evaluate_neck"] == "16/3"))
    for name in ("genus2_three_defects.json", "seamed_sphere_tower.json"):
        add(["tqft", "eval", "--surface", str(surfaces_dir / name), "--both"], _passes)

    add(["verify", "sylvester", "--m", "2", "--n", "1", "--p", "1", "--q", "0"], _passes)
    add(["verify", "sylvester", "--m", "2", "--n", "2", "--p", "1", "--q", "1"], _passes)
    add(["verify", "exchange", "--m", "2", "--n", "2"], _passes)
    add(["verify", "exchange", "--m", "3", "--n", "2", "--mode", "grid"], _passes)
    add(["verify", "chenlouck", "--m", "3", "--d", "1"], _passes)
    add(["verify", "dksv", "--m", "2", "--n", "2", "--d", "1", "--size-x", "1",
         "--size-e", "3", "--mode", "grid"], _passes)
    add(["suite", "smoke"], _passes)
    add(["suite", "full"], _passes)

    # known faults of the exit-code contract: each is bad input, exit 2
    fault = "CLI exit-code contract"
    add(["mf", "trace", "--f", "x^2-2"], _exits_2, fault)
    add(["web", "decompose", "--p", "2", "--parts", "1,1,1"], _exits_2, fault)
    no_facets = workdir / "no_facets.json"
    no_facets.write_text(json.dumps(
        {"backend": {"kind": "finite", "p": 3, "degrees": [1, 2]}, "seams": []}))
    add(["tqft", "eval", "--surface", str(no_facets)], _exits_2, fault)
    add(["verify", "sylvester", "--m", "-1"], _exits_2, fault)
    return jobs


BUILDERS = {
    "identity-symbolic": identity_symbolic,
    "identity-grid": identity_grid,
    "surfaces": surfaces,
    "cli": cli_workload,
}
