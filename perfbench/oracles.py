"""Independent exact oracles for the benchmark's correctness checks.

Every function here recomputes a value from its defining formula with
integers and fractions.Fraction, using the standard library only.  None
of them imports foamlib, so a fault in the program cannot hide inside its
own check, and no check compares against a stored copy of earlier output.

Run this file directly to self-test the oracles:

    python3 perfbench/oracles.py
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import combinations


# ---------------------------------------------------------------------------
# Points and R-products


def sample_point(rng: random.Random, names) -> dict:
    """Distinct integer values, so every difference of two variables is
    nonzero and no denominator of the sums below can vanish."""
    names = list(names)
    values = rng.sample(range(-10**6, 10**6), len(names))
    return dict(zip(names, values))


def r_prod(point, Y, Z) -> int:
    """R(Y, Z) = prod over y in Y, z in Z of (y - z); 1 on empty sets."""
    out = 1
    for y in Y:
        for z in Z:
            out *= point[y] - point[z]
    return out


def _rest(S, sub):
    return [v for v in S if v not in sub]


# ---------------------------------------------------------------------------
# The defining sums of the identity families


def sylvester(point, A, B, p: int, q: int, x: str = "x") -> Fraction:
    """Syl_{p,q}(A, B)(x): the double sum over A' in C(A, p), B' in C(B, q)
    of R(x, A') R(x, B') R(A', B') R(A - A', B - B') / (R(A', A - A') R(B', B - B'))."""
    total = Fraction(0)
    for Ap in combinations(A, p):
        Ac = _rest(A, Ap)
        for Bp in combinations(B, q):
            Bc = _rest(B, Bp)
            num = (r_prod(point, [x], Ap) * r_prod(point, [x], Bp)
                   * r_prod(point, Ap, Bp) * r_prod(point, Ac, Bc))
            total += Fraction(num, r_prod(point, Ap, Ac) * r_prod(point, Bp, Bc))
    return total


def exchange(point, A, B, X, d: int) -> tuple[Fraction, Fraction]:
    """Both sides of the Exchange identity:
    sum_{A' in C(A, d)} R(A - A', B) R(X, A') / R(A - A', A')  and
    sum_{B' in C(B, d)} R(A, B - B') R(X, B') / R(B', B - B')."""
    lhs = Fraction(0)
    for Ap in combinations(A, d):
        Ac = _rest(A, Ap)
        lhs += Fraction(r_prod(point, Ac, B) * r_prod(point, X, Ap),
                        r_prod(point, Ac, Ap))
    rhs = Fraction(0)
    for Bp in combinations(B, d):
        Bc = _rest(B, Bp)
        rhs += Fraction(r_prod(point, A, Bc) * r_prod(point, X, Bp),
                        r_prod(point, Bp, Bc))
    return lhs, rhs


def chen_louck(point, A, X, d: int) -> tuple[Fraction, Fraction]:
    """Interpolation of f = e_k, k = |X| = |A| - d:  e_k(X) against
    sum_{A' in C(A, d)} e_k(A - A') R(X, A') / R(A - A', A')."""
    lhs = Fraction(math.prod(point[v] for v in X))
    rhs = Fraction(0)
    for Ap in combinations(A, d):
        Ac = _rest(A, Ap)
        rhs += Fraction(math.prod(point[v] for v in Ac) * r_prod(point, X, Ap),
                        r_prod(point, Ac, Ap))
    return lhs, rhs


def dksv(point, A, B, X, E, d: int) -> tuple[Fraction, Fraction]:
    """The three-alphabet partition identity:
    sum_{A1 in C(A, d)} R(A2, B) R(X, A1) / R(A1, A2)  against the sum over
    ordered partitions E = E1 + E2 + E3 with |E1| = d, |E2| = |A| - d of
    R(A, E3) R(E2, B) R(X, E1) / (R(E1, E2) R(E1, E3) R(E2, E3))."""
    m = len(A)
    lhs = Fraction(0)
    for A1 in combinations(A, d):
        A2 = _rest(A, A1)
        lhs += Fraction(r_prod(point, A2, B) * r_prod(point, X, A1),
                        r_prod(point, A1, A2))
    rhs = Fraction(0)
    for E1 in combinations(E, d):
        rest = _rest(E, E1)
        for E2 in combinations(rest, m - d):
            E3 = _rest(rest, E2)
            num = r_prod(point, A, E3) * r_prod(point, E2, B) * r_prod(point, X, E1)
            den = r_prod(point, E1, E2) * r_prod(point, E1, E3) * r_prod(point, E2, E3)
            rhs += Fraction(num, den)
    return lhs, rhs


def names(prefix: str, size: int) -> tuple[str, ...]:
    """Variable names of an alphabet, in the program's documented scheme."""
    return tuple(f"{prefix}{i + 1}" for i in range(size))


# ---------------------------------------------------------------------------
# Reading a polynomial


def poly_value(terms, point) -> Fraction:
    """Value of a polynomial given as {((var, exp), ...): coeff} at a point.

    Powers come from a per-variable table, so a 400k-term polynomial is
    read in about a second; MultiPoly.eval rebuilds a Fraction power per
    factor and takes about as long as computing the sum itself.
    """
    powers: dict = {}
    total = 0
    for mono, c in terms.items():
        acc = c
        for v, e in mono:
            table = powers.setdefault(v, [1])
            while len(table) <= e:
                table.append(table[-1] * point[v])
            acc *= table[e]
        total += acc
    return Fraction(total)


# ---------------------------------------------------------------------------
# Counting facts


def wreath_order(n: int) -> int:
    """|G_n| for the n-fold iterated wreath product of S2: 2^(2^n - 1)."""
    return 2 ** (2 ** n - 1)


def class_count(n: int) -> int:
    """Classes of G_n = G_{n-1} wr S2 from those of G_{n-1}: k unordered
    pairs of classes, k(k+1)/2, plus k classes of swapping elements, so
    k(k+3)/2, starting from the trivial group (k = 1).  This is also the
    count of sign-labeled depth-(n-1) trees."""
    k = 1
    for _ in range(n):
        k = k * (k + 3) // 2
    return k


def multinomial(parts) -> int:
    """N! / prod a_i!  for N = sum(parts)."""
    out = math.factorial(sum(parts))
    for a in parts:
        out //= math.factorial(a)
    return out


def compositions(N: int):
    """All ordered tuples of positive integers summing to N."""
    if N == 0:
        yield ()
        return
    for first in range(1, N + 1):
        for rest in compositions(N - first):
            yield (first,) + rest


def residue_trace(p, f, char: int = 0):
    """tr_G(p) for monic f: the x^(n-1) coefficient of p mod f.

    p and f are coefficient lists, lowest degree first; char 0 means QQ,
    otherwise the coefficients live in Z/char.
    """
    n = len(f) - 1
    rem = [Fraction(c) for c in p]
    for top in range(len(rem) - 1, n - 1, -1):
        c = rem[top]
        if c:
            for i in range(n + 1):
                rem[top - n + i] -= c * f[i]
    value = rem[n - 1] if n - 1 < len(rem) else Fraction(0)
    if char:
        return int(value) % char
    return value


def render_poly(coeffs) -> str:
    """A coefficient list, lowest degree first, in the CLI's syntax."""
    out = []
    for e in range(len(coeffs) - 1, -1, -1):
        c = coeffs[e]
        if c == 0:
            continue
        mag = abs(c)
        mono = "" if e == 0 else ("x" if e == 1 else f"x^{e}")
        body = str(mag) if not mono else (mono if mag == 1 else f"{mag}*{mono}")
        if not out:
            out.append(body if c > 0 else f"-{body}")
        else:
            out.append(("+ " if c > 0 else "- ") + body)
    return " ".join(out) if out else "0"


# ---------------------------------------------------------------------------
# Self-test


def self_test() -> None:
    """Check the oracles against facts that do not depend on them.

    Raises AssertionError on the first failure.
    """
    rng = random.Random(0)
    for m in range(4):
        for n in range(4):
            A, B = names("a", m), names("b", n)
            pt = sample_point(rng, A + B + ("x",))
            # Syl_{0,0}(A, B) is the resultant R(A, B)
            assert sylvester(pt, A, B, 0, 0) == r_prod(pt, A, B)
            for d in range(1, min(m, n) + 1):
                X = names("x", m + n - 2 * d)
                ptx = sample_point(rng, A + B + X)
                lhs, rhs = exchange(ptx, A, B, X, d)
                assert lhs == rhs, ("exchange", m, n, d)
                # one X-variable too many breaks the identity
                X1 = names("x", m + n - 2 * d + 1)
                lhs, rhs = exchange(sample_point(rng, A + B + X1), A, B, X1, d)
                assert lhs != rhs, ("exchange control", m, n, d)
    for m in range(1, 5):
        for d in range(1, m + 1):
            A, X = names("a", m), names("x", m - d)
            lhs, rhs = chen_louck(sample_point(rng, A + X), A, X, d)
            assert lhs == rhs, ("chen-louck", m, d)
    A, B, X, E = names("a", 2), names("b", 2), names("x", 1), names("e", 3)
    lhs, rhs = dksv(sample_point(rng, A + B + X + E), A, B, X, E, 1)
    assert lhs == rhs, "dksv"
    assert [class_count(n) for n in range(1, 5)] == [2, 5, 20, 230]
    assert [wreath_order(n) for n in range(1, 5)] == [2, 8, 128, 32768]
    assert multinomial((1, 2, 3)) == 60
    assert sum(1 for _ in compositions(6)) == 32
    # x^3 = 2x mod x^2 - 2, so tr_G(x^3) = 2; x^4 + 2 = 3 - x - x^2 mod
    # x^3 + x + 1 over Z/5, so tr_G = -1 = 4
    assert residue_trace([0, 0, 0, 1], [-2, 0, 1]) == 2
    assert residue_trace([2, 0, 0, 0, 1], [1, 1, 0, 1], char=5) == 4
    assert render_poly([5, -2, 0, 3]) == "3*x^3 - 2*x + 5"
    assert poly_value({((("x", 2),)): 3, (): Fraction(1, 2)}, {"x": 4}) == Fraction(97, 2)


if __name__ == "__main__":
    self_test()
    print("oracle self-test: PASS")
