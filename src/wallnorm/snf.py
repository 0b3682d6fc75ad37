"""Exact integer matrix tools: Smith normal form and small unimodular algebra.

Everything here runs over Python's arbitrary-precision integers (with
Fractions for the inverse); there is no floating point and no modular
shortcut anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import InternalError


def identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


@dataclass(frozen=True)
class SNFResult:
    """Diagonalization S = U A V with U unimodular (V is not tracked).

    ``diag`` holds the diagonal of S padded with zeros to ``rows`` entries,
    so index i of ``diag`` matches row i of U and column i of ``u_inverse``.
    """

    u: tuple[tuple[int, ...], ...]
    u_inverse: tuple[tuple[int, ...], ...]
    diag: tuple[int, ...]

    @property
    def rank(self) -> int:
        return sum(1 for s in self.diag if s != 0)


def smith_normal_form(matrix: Sequence[Sequence[int]], rows: int, cols: int) -> SNFResult:
    """Diagonalize an integer matrix by unimodular row and column operations.

    Only the left transform U (and its inverse) is returned; column
    operations do not change the column span, which is all the homology
    computation needs.  Divisibility of the diagonal is not normalized:
    the callers only ever ask whether entries lie in {0, 1}.
    """
    a = [[int(matrix[i][j]) for j in range(cols)] for i in range(rows)]
    u = identity(rows)
    u_inv = identity(rows)

    def row_swap(i: int, k: int) -> None:
        a[i], a[k] = a[k], a[i]
        u[i], u[k] = u[k], u[i]
        for r in u_inv:
            r[i], r[k] = r[k], r[i]

    def row_negate(i: int) -> None:
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]
        for r in u_inv:
            r[i] = -r[i]

    def row_add(i: int, k: int, c: int) -> None:
        # row_i += c * row_k; inverse transform: column_k -= c * column_i
        a[i] = [x + c * y for x, y in zip(a[i], a[k])]
        u[i] = [x + c * y for x, y in zip(u[i], u[k])]
        for r in u_inv:
            r[k] -= c * r[i]

    def col_swap(j: int, k: int) -> None:
        for r in a:
            r[j], r[k] = r[k], r[j]

    def col_add(j: int, k: int, c: int) -> None:
        # column_j += c * column_k; only A needs it
        for r in a:
            r[j] += c * r[k]

    t = 0
    limit = min(rows, cols)
    while t < limit:
        pivot = None
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                v = abs(a[i][j])
                if v and (best is None or v < best):
                    best, pivot = v, (i, j)
        if pivot is None:
            break
        if pivot != (t, t):
            if pivot[0] != t:
                row_swap(t, pivot[0])
            if pivot[1] != t:
                col_swap(t, pivot[1])
        if a[t][t] < 0:
            row_negate(t)

        while True:
            moved = False
            for i in range(rows):
                if i != t and a[i][t]:
                    q = a[i][t] // a[t][t]
                    row_add(i, t, -q)
                    if a[i][t]:
                        # remainder became the smaller pivot
                        row_swap(t, i)
                        if a[t][t] < 0:
                            row_negate(t)
                        moved = True
            for j in range(cols):
                if j != t and a[t][j]:
                    q = a[t][j] // a[t][t]
                    col_add(j, t, -q)
                    if a[t][j]:
                        col_swap(t, j)
                        moved = True
            if not moved:
                break
        t += 1

    diag = tuple(a[i][i] if i < cols else 0 for i in range(rows))
    return SNFResult(
        tuple(tuple(r) for r in u),
        tuple(tuple(r) for r in u_inv),
        diag,
    )


def int_det(matrix: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix (fraction-free Bareiss)."""
    n = len(matrix)
    if n == 0:
        return 1
    a = [[int(x) for x in row] for row in matrix]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def unimodular_inverse(matrix: Sequence[Sequence[int]]) -> list[list[int]] | None:
    """Integer inverse of a square matrix, or None when |det| != 1."""
    n = len(matrix)
    if int_det(matrix) not in (1, -1):
        return None
    aug = [
        [Fraction(matrix[i][j]) for j in range(n)]
        + [Fraction(1 if i == j else 0) for j in range(n)]
        for i in range(n)
    ]
    for col in range(n):
        pivot = next(i for i in range(col, n) if aug[i][col] != 0)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for i in range(n):
            if i != col and aug[i][col] != 0:
                factor = aug[i][col]
                aug[i] = [x - factor * y for x, y in zip(aug[i], aug[col])]
    out = [[aug[i][n + j] for j in range(n)] for i in range(n)]
    if any(x.denominator != 1 for row in out for x in row):
        raise InternalError("inverse of a unimodular matrix is not integral")
    return [[int(x) for x in row] for row in out]
