"""Exact linear algebra for point sets.

``affine_dimension`` is the dimension of an affine hull, by integer
elimination; the dual ball and the normal rank of the highest potential
use it.  ``solve_lp``, a textbook two-phase tableau simplex with Bland's
rule over Fractions, and ``hull_position``, which places a point against
a convex hull with it, are the independent reference that the tests hold
the highest potential to; no report calls them.  Problem sizes are tiny
(a handful of equality constraints, dozens of variables), so termination
and exactness matter and asymptotics do not.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .errors import InternalError

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


class _Unbounded(Exception):
    pass


class _Tableau:
    """Equality-form tableau: columns are n originals, m artificials, rhs."""

    def __init__(self, a: Sequence[Sequence[Fraction]], b: Sequence[Fraction], n: int):
        self.n = n
        self.m = len(a)
        self.width = n + self.m
        self.rows: list[list[Fraction]] = []
        self.basis: list[int] = []
        for i in range(self.m):
            row = [Fraction(x) for x in a[i]]
            rhs = Fraction(b[i])
            if rhs < 0:
                row = [-x for x in row]
                rhs = -rhs
            row += [Fraction(int(i == j)) for j in range(self.m)]
            row.append(rhs)
            self.rows.append(row)
            self.basis.append(n + i)

    def pivot(self, row: int, col: int) -> None:
        inv = 1 / self.rows[row][col]
        self.rows[row] = [x * inv for x in self.rows[row]]
        for i in range(self.m):
            if i != row and self.rows[i][col] != 0:
                factor = self.rows[i][col]
                self.rows[i] = [x - factor * y for x, y in zip(self.rows[i], self.rows[row])]
        self.basis[row] = col

    def reduced_costs(self, costs: list[Fraction]) -> list[Fraction]:
        reduced = costs + [Fraction(0)]
        for i, bi in enumerate(self.basis):
            cb = costs[bi]
            if cb:
                reduced = [x - cb * y for x, y in zip(reduced, self.rows[i])]
        return reduced

    def maximize(self, costs: list[Fraction], allowed: int) -> Fraction:
        """Bland's-rule simplex over columns < allowed from the current basis."""
        while True:
            reduced = self.reduced_costs(costs)
            entering = next((j for j in range(allowed) if reduced[j] > 0), None)
            if entering is None:
                return -reduced[self.width]
            leaving = None
            best = None
            for i in range(self.m):
                coeff = self.rows[i][entering]
                if coeff > 0:
                    ratio = self.rows[i][-1] / coeff
                    if best is None or ratio < best or (
                        ratio == best and self.basis[i] < self.basis[leaving]
                    ):
                        best = ratio
                        leaving = i
            if leaving is None:
                raise _Unbounded()
            self.pivot(leaving, entering)

    def drop_redundant_rows(self) -> None:
        """After phase one: pivot artificials out, delete redundant rows."""
        for i in range(self.m):
            if self.basis[i] >= self.n:
                col = next((j for j in range(self.n) if self.rows[i][j] != 0), None)
                if col is not None:
                    self.pivot(i, col)
        keep = [i for i in range(self.m) if self.basis[i] < self.n]
        for i in range(self.m):
            if self.basis[i] >= self.n and self.rows[i][-1] != 0:
                raise InternalError("artificial basic at nonzero after phase one")
        self.rows = [self.rows[i] for i in keep]
        self.basis = [self.basis[i] for i in keep]
        self.m = len(keep)


def solve_lp(
    a: Sequence[Sequence[Fraction]],
    b: Sequence[Fraction],
    c: Sequence[Fraction],
) -> tuple[str, list[Fraction] | None, Fraction | None]:
    """Maximize c.x subject to a.x = b, x >= 0.

    Returns (status, x, value); x and value are None unless optimal.
    """
    n = len(c)
    tableau = _Tableau(a, b, n)
    phase1 = [Fraction(0)] * n + [Fraction(-1)] * tableau.m
    value = tableau.maximize(phase1, tableau.width)
    if value != 0:
        return INFEASIBLE, None, None
    tableau.drop_redundant_rows()

    phase2 = [Fraction(x) for x in c] + [Fraction(0)] * (tableau.width - n)
    try:
        value = tableau.maximize(phase2, n)
    except _Unbounded:
        return UNBOUNDED, None, None
    x = [Fraction(0)] * n
    for i, bi in enumerate(tableau.basis):
        if bi < n:
            x[bi] = tableau.rows[i][-1]
    return OPTIMAL, x, value


def hull_position(points: Sequence[Sequence[int]], target: Sequence[int]) -> str:
    """Classify target against conv(points): 'outside', 'boundary', 'interior'.

    Interior means a convex combination with every coefficient strictly
    positive exists, decided by maximizing the minimum coefficient; that
    characterizes the relative interior, which equals the interior when the
    points affinely span the ambient space.
    """
    if not points:
        return "outside"
    dim = len(target)
    n = len(points)
    # write lambda_i = mu_i + t with mu, t >= 0 and maximize t
    a = [[Fraction(1)] * n + [Fraction(n)]]
    b = [Fraction(1)]
    for k in range(dim):
        a.append([Fraction(p[k]) for p in points] + [Fraction(sum(p[k] for p in points))])
        b.append(Fraction(target[k]))
    c = [Fraction(0)] * n + [Fraction(1)]
    status, _, value = solve_lp(a, b, c)
    if status != OPTIMAL:
        return "outside"
    return "interior" if value > 0 else "boundary"


def affine_dimension(points: Sequence[Sequence[int]]) -> int:
    """Dimension of the affine hull of the points (exact rank computation).

    Fraction-free (Bareiss) elimination over the integers: each update
    divides by the previous pivot, and that division is always exact.
    """
    if not points:
        return -1
    base = points[0]
    rows = [[p[k] - base[k] for k in range(len(base))] for p in points[1:]]
    rank, previous = 0, 1
    for col in range(len(base)):
        pivot = next((row for row in rows if row[col]), None)
        if pivot is None:
            continue
        rank += 1
        rows = [
            [(pivot[col] * x - row[col] * y) // previous for x, y in zip(row, pivot)]
            for row in rows if row is not pivot
        ]
        previous = pivot[col]
    return rank
