"""Exact integer matrix utilities: HNF, kernels, determinants, char polys.

Matrices are tuples of tuples of Python ints.  Sizes here are tiny (the
field degree), so clarity wins over asymptotics.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul

from .polynomial import IntPolynomial


def mat_identity(n: int):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_mul(a, b):
    cols = list(zip(*b))
    return tuple(tuple(sum(map(mul, row, col)) for col in cols) for row in a)


def mat_is_nonnegative(a) -> bool:
    return all(x >= 0 for row in a for x in row)


def mat_det(a) -> int:
    """Fraction-free (Bareiss) determinant."""
    n = len(a)
    if n == 0:
        return 1
    m = [list(row) for row in a]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            piv = next((r for r in range(k + 1, n) if m[r][k] != 0), None)
            if piv is None:
                return 0
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def mat_inverse_fraction(a):
    """Exact inverse as a matrix of Fractions.

    Nothing in the package calls it: the attractor expansion and the LLL
    step carry their inverses.  perfbench/layers.py counts its calls by
    name, so it stays until the benchmark drops that counter."""
    n = len(a)
    aug = [[Fraction(a[i][j]) for j in range(n)] + [Fraction(int(i == j)) for j in range(n)]
           for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if piv is None:
            raise ZeroDivisionError("singular matrix")
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = Fraction(1) / aug[col][col]
        aug[col] = [v * inv for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [v - f * w for v, w in zip(aug[r], aug[col])]
    return tuple(tuple(row[n:]) for row in aug)


# ---------------------------------------------------------------------------
# Hermite normal form (row style)
#
# H is upper triangular with positive pivots and entries above each pivot
# reduced into [0, pivot).  For a fixed row lattice the form is unique, so
# lattice equality is plain data comparison.

def row_hnf_transform(rows):
    """Return (H, U, rank) with U unimodular, U * rows = [H; 0]."""
    m = len(rows)
    n = len(rows[0]) if m else 0
    a = [list(r) for r in rows]
    u = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    pr = 0
    pivots = []
    for col in range(n):
        piv = next((r for r in range(pr, m) if a[r][col] != 0), None)
        if piv is None:
            continue
        a[pr], a[piv] = a[piv], a[pr]
        u[pr], u[piv] = u[piv], u[pr]
        for r in range(pr + 1, m):
            while a[r][col] != 0:
                q = a[pr][col] // a[r][col]
                a[pr] = [x - q * y for x, y in zip(a[pr], a[r])]
                u[pr] = [x - q * y for x, y in zip(u[pr], u[r])]
                a[pr], a[r] = a[r], a[pr]
                u[pr], u[r] = u[r], u[pr]
        if a[pr][col] < 0:
            a[pr] = [-x for x in a[pr]]
            u[pr] = [-x for x in u[pr]]
        pivots.append((pr, col))
        pr += 1
    # reduce entries above each pivot
    for pr_row, col in pivots:
        p = a[pr_row][col]
        for r in range(pr_row):
            q = a[r][col] // p
            if q:
                a[r] = [x - q * y for x, y in zip(a[r], a[pr_row])]
                u[r] = [x - q * y for x, y in zip(u[r], u[pr_row])]
    rank = pr
    h = tuple(tuple(row) for row in a[:rank])
    return h, tuple(tuple(row) for row in u), rank


def kernel_basis(rows):
    """Basis of the left integer kernel {x : x * rows = 0} (saturated)."""
    _, u, rank = row_hnf_transform(rows)
    return u[rank:]


def lattice_intersect(a_rows, b_rows):
    """Intersection of two full row lattices in Z^n."""
    n = len(a_rows[0])
    stacked = list(a_rows) + list(b_rows)
    combos = kernel_basis(stacked)
    inter = []
    for c in combos:
        v = [0] * n
        for coef, row in zip(c[: len(a_rows)], a_rows):
            for j in range(n):
                v[j] += coef * row[j]
        inter.append(tuple(v))
    h, _, rank = row_hnf_transform(inter) if inter else ((), (), 0)
    if rank < n:
        raise ValueError("intersection lost rank; inputs were not full lattices")
    return h


def charpoly(a) -> IntPolynomial:
    """Characteristic polynomial det(xI - A), exact.

    Berkowitz's division-free algorithm (Inf. Process. Lett. 18, 1984):
    with A_k the trailing principal submatrix from row k on, split as
    [[a, R], [C, A_(k+1)]], the coefficients of det(xI - A_k), highest
    first, are a lower triangular Toeplitz matrix with first column
    1, -a, -R C, -R A_(k+1) C, ..., -R A_(k+1)^(n-k-2) C applied to those
    of det(xI - A_(k+1)).  Only integer products.
    """
    n = len(a)
    vec = [1]  # det(xI - A_n) of the empty trailing block
    for k in range(n - 1, -1, -1):
        rest = range(k + 1, n)
        toeplitz = [1, -a[k][k]]
        col = [a[i][k] for i in rest]  # C, then A_(k+1)^j C
        for _ in rest:
            toeplitz.append(-sum(a[k][j] * c for j, c in zip(rest, col)))
            col = [sum(a[i][j] * c for j, c in zip(rest, col)) for i in rest]
        vec = [sum(toeplitz[i - j] * vec[j] for j in range(min(i + 1, len(vec))))
               for i in range(len(vec) + 1)]
    return IntPolynomial(tuple(reversed(vec)))


def is_primitive(a) -> bool:
    """Whether the non-negative matrix is primitive (some power is > 0)."""
    n = len(a)
    if not mat_is_nonnegative(a):
        return False
    reach = [[1 if a[i][j] > 0 else 0 for j in range(n)] for i in range(n)]
    cur = [row[:] for row in reach]
    limit = (n - 1) ** 2 + 1
    for _ in range(limit):
        if all(all(x > 0 for x in row) for row in cur):
            return True
        cur = [
            [min(1, sum(cur[i][t] * reach[t][j] for t in range(n))) for j in range(n)]
            for i in range(n)
        ]
    return all(all(x > 0 for x in row) for row in cur)
