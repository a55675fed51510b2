"""Small dense linear algebra over a scalar domain (exact, desk scale)."""

from __future__ import annotations


def _row_reduce(dom, aug, cols: int) -> list[int]:
    """Gauss-Jordan on the first cols columns of the rows aug, in place.

    Returns the pivot columns: row i then has a 1 in column pivots[i] and
    every other row a 0 there.
    """
    rows = len(aug)
    pivots = []
    for c in range(cols):
        r = len(pivots)
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
    return pivots


def mat_inverse(dom, M):
    """Inverse of a square matrix by Gauss-Jordan; raises on singularity."""
    n = len(M)
    aug = [list(row) + [dom.one if i == j else dom.zero for j in range(n)]
           for i, row in enumerate(M)]
    if len(_row_reduce(dom, aug, n)) < n:
        raise ValueError("singular matrix")
    return [row[n:] for row in aug]


def solve(dom, M, b):
    """Solve M x = b for square or tall M with full column rank."""
    rows, cols = len(M), len(M[0])
    aug = [list(M[r]) + [b[r]] for r in range(rows)]
    pivots = _row_reduce(dom, aug, cols)
    x = [dom.zero] * cols
    for i, c in enumerate(pivots):
        x[c] = aug[i][cols]
    # consistency: remaining rows must be zero = zero
    for i in range(len(pivots), rows):
        if not dom.is_zero(aug[i][cols]):
            raise ValueError("inconsistent linear system")
    return x
