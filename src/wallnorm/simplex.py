"""Exact linear algebra for point sets.

``affine_dimension`` is the dimension of an affine hull, by integer
elimination; the dual ball and the normal rank of the highest potential
use it.
"""

from __future__ import annotations

from typing import Sequence


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
