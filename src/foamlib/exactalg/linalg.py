"""Small dense linear algebra over a scalar domain (exact, desk scale)."""

from __future__ import annotations


def mat_inverse(dom, M):
    """Inverse of a square matrix by Gauss-Jordan; raises on singularity."""
    n = len(M)
    aug = [list(row) + [dom.one if i == j else dom.zero for j in range(n)]
           for i, row in enumerate(M)]
    for col in range(n):
        pivot = next(
            (r for r in range(col, n) if not dom.is_zero(aug[r][col])), None
        )
        if pivot is None:
            raise ValueError("singular matrix")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv_p = dom.inv(aug[col][col])
        aug[col] = [dom.mul(inv_p, a) for a in aug[col]]
        for r in range(n):
            if r == col or dom.is_zero(aug[r][col]):
                continue
            factor = aug[r][col]
            aug[r] = [
                dom.sub(a, dom.mul(factor, b)) for a, b in zip(aug[r], aug[col])
            ]
    return [row[n:] for row in aug]


def solve(dom, M, b):
    """Solve M x = b for square or tall M with full column rank."""
    rows, cols = len(M), len(M[0])
    aug = [list(M[r]) + [b[r]] for r in range(rows)]
    pivots = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if not dom.is_zero(aug[i][c])), None)
        if pivot is None:
            continue
        aug[r], aug[pivot] = aug[pivot], aug[r]
        inv_p = dom.inv(aug[r][c])
        aug[r] = [dom.mul(inv_p, a) for a in aug[r]]
        for i in range(rows):
            if i != r and not dom.is_zero(aug[i][c]):
                f = aug[i][c]
                aug[i] = [dom.sub(a, dom.mul(f, bb)) for a, bb in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    x = [dom.zero] * cols
    for i, c in enumerate(pivots):
        x[c] = aug[i][cols]
    # consistency: remaining rows must be zero = zero
    for i in range(len(pivots), rows):
        if not dom.is_zero(aug[i][cols]):
            raise ValueError("inconsistent linear system")
    return x
