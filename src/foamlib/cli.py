"""Command line front end: every verifier and evaluator as a subcommand.

Reports are deterministic for fixed inputs and seed.  --json emits the
RunReport as JSON; wall time is reported on stderr only, so the JSON
output of two identical invocations is byte-identical.  Exit codes:
0 all assertions pass, 1 an assertion failed, 2 parse/input error.

run() may be called any number of times in one process.  It parses with
one parser, built on the first call and kept, since parsing leaves a
parser unchanged; every call still parses its argv into a new namespace,
checks it and runs its handler, and nothing computed is kept between
calls.  build_parser() returns a new parser each time.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from json.encoder import encode_basestring_ascii as _str

from .exactalg.multipoly import parse_poly, parse_unipoly
from .exactalg.scalars import QQ_DOMAIN, zmod
from .fieldext import BackendError, make_backend
from . import mftrace, sylfoam, tqft2d, webgal, wreathrep


@dataclass
class RunReport:
    subcommand: str
    input_digest: str
    seed: int
    assertions: list = field(default_factory=list)
    wall_ms: float = 0.0

    def add(self, name: str, ok: bool, value: str = ""):
        self.assertions.append(
            {"name": name, "status": "PASS" if ok else "FAIL", "value": value}
        )

    @property
    def ok(self) -> bool:
        return all(a["status"] == "PASS" for a in self.assertions)

    def to_json(self) -> str:
        """json.dumps(..., indent=2, sort_keys=True) of the report, written
        directly for its fixed schema: json.dumps with an indent runs the
        pure-Python encoder.  Every name and value is a str."""
        items = [
            f'    {{\n      "name": {_str(a["name"])},\n'
            f'      "status": {_str(a["status"])},\n'
            f'      "value": {_str(a["value"])}\n    }}'
            for a in self.assertions
        ]
        assertions = "[\n" + ",\n".join(items) + "\n  ]" if items else "[]"
        return (
            f'{{\n  "assertions": {assertions},\n'
            f'  "input_digest": {_str(self.input_digest)},\n'
            f'  "ok": {"true" if self.ok else "false"},\n'
            f'  "seed": {self.seed:d},\n'
            f'  "subcommand": {_str(self.subcommand)}\n}}'
        )

    def print_text(self):
        for a in self.assertions:
            line = f"{a['status']}  {a['name']}"
            if a["value"]:
                line += f"  = {a['value']}"
            print(line)


def _digest(payload) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True, default=str).encode()
    ).hexdigest()[:16]


# ---------------------------------------------------------------------------
# tqft


def cmd_tqft(args, report: RunReport):
    with open(args.surface) as fh:
        doc = json.load(fh)
    backend = None
    if args.backend:
        with open(args.backend) as fh:
            backend = make_backend(json.load(fh))
    surface = tqft2d.surface_from_json(doc, backend)
    be = surface.backend
    if args.both:
        # a backend without the coloring route is bad input, not a FAIL
        tqft2d.require_coloring_backend(be)
    rep = tqft2d.validate(surface)
    report.add("surface_valid", rep["ok"],
               f"euler characteristics {rep['euler_characteristics']}")
    neck = tqft2d.evaluate_neck(surface)
    report.add("evaluate_neck", True, be.ground.render(neck))
    if args.both:
        try:
            col = tqft2d.evaluate_coloring(surface)
        except tqft2d.SurfaceError as exc:
            report.add("evaluate_coloring", False, str(exc))
            return
        report.add("evaluate_coloring", True, be.ground.render(col))
        report.add("evaluators_agree", neck == col)


# ---------------------------------------------------------------------------
# verify


def cmd_verify(args, report: RunReport):
    mode = args.mode
    if args.identity == "sylvester":
        A = sylfoam.alphabet("A", args.m)
        B = sylfoam.alphabet("B", args.n)
        p = args.p if args.p is not None else 0
        q = args.q if args.q is not None else 0
        syl = sylfoam.sylvester_double_sum(A, B, p, q)
        report.add(f"sylvester m={args.m} n={args.n} p={p} q={q}", True,
                   syl.render())
        deg_x = syl.degree_in("x")
        report.add("degree_bound", deg_x <= p + q, f"deg_x = {deg_x} <= {p + q}")
        diagram = sylfoam.diagram_sylvester(A, B, p, q)
        agrees = sylfoam.overlap_matches_polynomial(
            diagram, sylfoam.sylvester_side(A, B, p, q))
        report.add("foam_matches_formula", agrees)
    elif args.identity == "exchange":
        for entry in sylfoam.verify_exchange(args.m, args.n, mode):
            report.add(
                f"exchange m={args.m} n={args.n} d={entry['d']} "
                f"|X|={entry['size_x']} ({mode})",
                entry["ok"],
            )
    elif args.identity == "chenlouck":
        f = parse_poly(args.f) if args.f else None
        entry = sylfoam.verify_chen_louck(args.m, args.d, f, mode)
        report.add(f"chenlouck m={args.m} d={args.d} ({mode})", entry["ok"])
    elif args.identity == "dksv":
        entry = sylfoam.verify_dksv(
            args.m, args.n, args.d, args.size_x, args.size_e, mode,
        )
        report.add(
            f"dksv m={args.m} n={args.n} d={args.d} |X|={args.size_x} "
            f"|E|={args.size_e} ({mode})",
            entry["ok"],
        )


# ---------------------------------------------------------------------------
# mf


def cmd_mf(args, report: RunReport):
    dom = QQ_DOMAIN if args.char == 0 else zmod(args.char)
    f = parse_unipoly(args.f, dom)
    J = mftrace.JacobiAlgebra(f)
    if args.action == "trace":
        p = parse_unipoly(args.p, dom)
        val = mftrace.grothendieck_trace(p, J)
        report.add(f"tr_G({args.p}) mod ({args.f})", True,
                   str(val) if dom.char == 0 else dom.render(val))
    elif args.action == "hessian":
        rep = mftrace.hessian_relation_check(J, trials=args.trials, seed=args.seed)
        report.add(f"hessian relation for {args.f}", rep["ok"],
                   f"{rep['checked']} checks")
    elif args.action == "backend":
        backend = mftrace.as_frobenius_backend(J)
        report.add("backend_emitted", True)
        report.add("handle_is_hessian", mftrace.handle_is_hessian(J))
        print(json.dumps(backend.descriptor(), indent=2, sort_keys=True))


# ---------------------------------------------------------------------------
# wreath


def cmd_wreath(args, report: RunReport):
    if args.action == "facts":
        rep = wreathrep.group_facts(args.n)
        report.add(f"order |G_{args.n}|", rep["order_ok"], str(rep["order"]))
        report.add("center = {1, c_n}", rep["center_ok"])
        report.add("coset decomposition", rep["coset_ok"])
        report.add("beta twist", rep["twist_ok"])
        mk = wreathrep.mackey_orbit_check(args.n)
        report.add("two HxH orbits of size |H|", mk["ok"],
                   str(mk["orbit_sizes"]))
        cc = wreathrep.central_element_checks(args.n)
        for key, val in cc.items():
            if key != "ok":
                report.add(key, val)
        ep = wreathrep.epm_idempotent_check(args.n)
        report.add("e_pm idempotent relations", ep["ok"])
    elif args.action == "classes":
        report.add(f"conjugacy classes of G_{args.n}", True,
                   str(wreathrep.class_count(args.n)))
    elif args.action == "d4-table":
        rep = wreathrep.d4_table_check(seed=args.seed)
        for key in ("classes_ok", "orthogonality_ok", "sum_of_squares_ok",
                    "perm_char_ok", "perm_decomposition_ok",
                    "tensor_square_ok", "v_times_sign_ok", "ind_res_ok"):
            report.add(key, rep[key])
    elif args.action == "oor":
        rep = wreathrep.oor_count_cross_check(args.n)
        report.add(
            f"labeled trees = conjugacy classes at n={args.n}",
            rep["ok"],
            f"{rep['tree_count']} = {rep['class_count']}",
        )


# ---------------------------------------------------------------------------
# web


def cmd_web(args, report: RunReport):
    if args.action == "qmoy":
        parts = tuple(int(x) for x in args.parts.split(","))
        qm = webgal.q_multinomial(args.N, parts)
        report.add(f"q-multinomial [{args.N}; {args.parts}]", True, qm.render())
        report.add("palindromic", qm.is_palindromic())
        report.add("value at q=1", qm.at_q1() == webgal.multinomial(args.N, parts),
                   str(qm.at_q1()))
    elif args.action == "decompose":
        parts = tuple(int(x) for x in args.parts.split(","))
        f = parse_unipoly(args.f, zmod(args.p))
        dec = webgal.web_decomposition(f, parts)
        table = ", ".join(f"deg {d} x{m}" for d, m in dec.factors)
        report.add(f"decomposition of ({args.f}; {args.parts}) over GF({args.p})",
                   True, table)
        report.add(
            "dimension total",
            dec.total_dimension == webgal.multinomial(sum(parts), parts),
            str(dec.total_dimension),
        )


# ---------------------------------------------------------------------------
# suites


def _suite_items(name: str, seed: int):
    from .fieldext import FiniteFieldTower, nilpotent_square_algebra, \
        scaling_automorphism

    def torus_sigma():
        alg = nilpotent_square_algebra()
        sig = scaling_automorphism(alg, 3)
        val = tqft2d.evaluate_neck(tqft2d.torus_with_defect(alg, 0, sig))
        return val == Fraction(16, 3), str(val)

    def evaluators_agree():
        import random as _random

        tower = FiniteFieldTower(3, [1, 2, 4])
        rng = _random.Random(seed)
        count = 20 if name == "smoke" else 200
        from .surfgen import random_surface

        for _ in range(count):
            s = random_surface(tower, rng)
            if tqft2d.evaluate_neck(s) != tqft2d.evaluate_coloring(s):
                return False, "disagreement found"
        return True, f"{count} random surfaces"

    def exchange():
        mn = 2 if name == "smoke" else 3
        entries = sylfoam.verify_exchange(mn, mn, "symbolic")
        return all(e["ok"] for e in entries), f"m=n={mn} symbolic"

    def hessian():
        f = parse_unipoly("x^3 - x - 1", QQ_DOMAIN)
        rep = mftrace.hessian_relation_check(mftrace.JacobiAlgebra(f), 10, seed)
        return rep["ok"], "x^3 - x - 1"

    def wreath():
        n = 2 if name == "smoke" else 3
        return wreathrep.group_facts(n)["ok"], f"n={n}"

    def d4():
        return wreathrep.d4_table_check(seed=seed)["ok"], "30 entries"

    def web():
        f = parse_unipoly("x^3 + x + 1", zmod(2))
        dec = webgal.web_decomposition(f, (1, 1, 1))
        return dec.factors == ((3, 2),), "x^3+x+1 over GF(2)"

    items = [
        ("torus_sigma_16_over_3", torus_sigma),
        ("evaluator_agreement", evaluators_agree),
        ("exchange_identity", exchange),
        ("hessian_relation", hessian),
        ("wreath_facts", wreath),
        ("d4_character_table", d4),
        ("web_decomposition", web),
    ]
    if name == "full":
        def oor4():
            return wreathrep.oor_count_cross_check(4)["ok"], "230 classes"

        def dksv():
            rep = sylfoam.verify_dksv(2, 2, 1, 1, 4, "grid")
            return rep["ok"], "m=n=2 |E|=4 grid"

        def skein():
            import random as _random

            from .surfgen import random_surface_with_pattern

            tower = FiniteFieldTower(3, [1, 2, 4])
            for pattern in tqft2d.REWRITE_RELATIONS:
                rng = _random.Random(seed + len(pattern))
                for _ in range(10):
                    s = random_surface_with_pattern(tower, rng, pattern)
                    if not tqft2d.skein_rewrite_check(pattern, s):
                        return False, pattern
            return True, "10 instances per rewrite"

        def exchange_grid():
            entries = sylfoam.verify_exchange(4, 4, "grid")
            return all(e["ok"] for e in entries), "m=n=4 grid"

        def qmoy_sweep():
            def comps(N):
                if N == 0:
                    yield ()
                    return
                for first in range(1, N + 1):
                    for rest in comps(N - first):
                        yield (first,) + rest

            for N in range(1, 7):
                for parts in comps(N):
                    qm = webgal.q_multinomial(N, parts)
                    if not qm.is_palindromic():
                        return False, f"{N} {parts}"
                    if qm.at_q1() != webgal.multinomial(N, parts):
                        return False, f"{N} {parts}"
            return True, "all compositions N <= 6"

        def hessian_gf5():
            f = parse_unipoly("x^6 + x + 1", zmod(5))
            rep = mftrace.hessian_relation_check(
                mftrace.JacobiAlgebra(f), 10, seed
            )
            return rep["ok"], "x^6 + x + 1 over GF(5)"

        items += [
            ("oor_tree_count_n4", oor4),
            ("dksv_identity", dksv),
            ("skein_rewrites", skein),
            ("exchange_grid_m4n4", exchange_grid),
            ("q_multinomial_sweep", qmoy_sweep),
            ("hessian_over_gf5", hessian_gf5),
        ]
    return items


def cmd_suite(args, report: RunReport):
    for nm, fn in _suite_items(args.name, args.seed):
        ok, value = fn()
        report.add(nm, ok, value)


# ---------------------------------------------------------------------------
# entry point


def _size(text: str) -> int:
    """argparse type of alphabet sizes and indices: a nonnegative int."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {value}")
    return value


# Options that only one action needs: (command, action) -> option.
_NEEDED = {("mf", "trace"): "p", ("web", "decompose"): "f"}


# Which action reads which option, for the options that not every action of
# their command reads: command -> option -> (its default, the actions that
# read it).  Any other value on another action is refused.
_READ_BY = {
    "verify": {"--n": (2, ("sylvester", "exchange", "dksv")),
               "--p": (None, ("sylvester",)), "--q": (None, ("sylvester",)),
               "--d": (1, ("chenlouck", "dksv")),
               "--size-x": (1, ("dksv",)), "--size-e": (3, ("dksv",)),
               "--f": (None, ("chenlouck",)),
               "--mode": ("symbolic", ("exchange", "chenlouck", "dksv"))},
    "mf": {"--p": (None, ("trace",)), "--trials": (10, ("hessian",))},
    "web": {"--N": (3, ("qmoy",)), "--p": (2, ("decompose",)),
            "--f": (None, ("decompose",))},
    "wreath": {"-n": (2, ("facts", "classes", "oor"))},
}


def _check_needed(ap: argparse.ArgumentParser, args) -> None:
    action = getattr(args, "identity", getattr(args, "action", None))
    need = _NEEDED.get((args.command, action))
    if need is not None and getattr(args, need) is None:
        ap.error(f"{args.command} {action} needs --{need}")
    for option, (default, readers) in _READ_BY.get(args.command, {}).items():
        dest = option.lstrip("-").replace("-", "_")
        if action not in readers and getattr(args, dest) != default:
            ap.error(f"{args.command} {action} does not read {option}")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="foamlib",
        description="exact evaluators and identity verifiers",
    )
    ap.add_argument("--json", action="store_true", help="emit the report as JSON")
    ap.add_argument("--seed", type=int, default=0,
                    help="seed for suite surfaces, mf hessian and wreath d4-table")
    sub = ap.add_subparsers(dest="command", required=True)

    p_tqft = sub.add_parser("tqft", help="evaluate a decorated surface")
    tq_sub = p_tqft.add_subparsers(dest="tqft_action", required=True)
    p_eval = tq_sub.add_parser("eval")
    p_eval.add_argument("--surface", required=True, help="surface JSON file")
    p_eval.add_argument("--backend", help="backend JSON file (if not inline)")
    p_eval.add_argument("--both", action="store_true",
                        help="run both evaluators and compare")

    p_ver = sub.add_parser("verify", help="polynomial identity verifiers")
    p_ver.add_argument("identity",
                       choices=["sylvester", "exchange", "chenlouck", "dksv"])
    p_ver.add_argument("--m", type=_size, default=2)
    p_ver.add_argument("--n", type=_size, default=2)
    p_ver.add_argument("--p", type=_size, default=None)
    p_ver.add_argument("--q", type=_size, default=None)
    p_ver.add_argument("--d", type=_size, default=1)
    p_ver.add_argument("--size-x", type=_size, default=1)
    p_ver.add_argument("--size-e", type=_size, default=3)
    p_ver.add_argument("--f", help="symmetric dot polynomial in slots s1..sk")
    p_ver.add_argument("--mode", choices=["symbolic", "grid"],
                       default="symbolic")

    p_mf = sub.add_parser("mf", help="Jacobi algebra traces")
    p_mf.add_argument("action", choices=["trace", "hessian", "backend"])
    p_mf.add_argument("--f", required=True, help="monic squarefree f = w'")
    p_mf.add_argument("--p", help="polynomial to trace")
    p_mf.add_argument("--trials", type=_size, default=10)
    p_mf.add_argument("--char", type=int, default=0,
                      help="ground characteristic (0 for QQ)")

    p_wr = sub.add_parser("wreath", help="iterated wreath product checks")
    p_wr.add_argument("action", choices=["facts", "classes", "d4-table", "oor"])
    p_wr.add_argument("-n", type=_size, default=2)

    p_web = sub.add_parser("web", help="theta-web invariants")
    p_web.add_argument("action", choices=["qmoy", "decompose"])
    p_web.add_argument("--N", type=int, default=3)
    p_web.add_argument("--parts", default="1,1,1")
    p_web.add_argument("--p", type=int, default=2, help="prime for GF(p)")
    p_web.add_argument("--f", help="irreducible polynomial over GF(p)")

    p_suite = sub.add_parser("suite", help="curated acceptance suites")
    p_suite.add_argument("name", choices=["smoke", "full"])

    return ap


HANDLERS = {
    "tqft": cmd_tqft,
    "verify": cmd_verify,
    "mf": cmd_mf,
    "wreath": cmd_wreath,
    "web": cmd_web,
    "suite": cmd_suite,
}


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser of run(), built once per process."""
    return build_parser()


def run(argv=None) -> int:
    ap = _parser()
    try:
        args = ap.parse_args(argv)
        _check_needed(ap, args)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    payload = {k: v for k, v in vars(args).items() if k != "json"}
    report = RunReport(
        subcommand=args.command, input_digest=_digest(payload), seed=args.seed
    )
    t0 = time.monotonic()
    try:
        HANDLERS[args.command](args, report)
    except (BackendError, tqft2d.SurfaceError, sylfoam.FoamValueError,
            webgal.WebError, mftrace.PotentialError, ValueError,
            OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report.wall_ms = (time.monotonic() - t0) * 1000.0
    if args.json:
        print(report.to_json())
    else:
        report.print_text()
    print(f"# wall time: {report.wall_ms:.1f} ms (seed {report.seed})",
          file=sys.stderr)
    return 0 if report.ok else 1


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
