"""Exact integer elimination for point sets and square matrices.

``affine_dimension`` is the dimension of an affine hull, by integer
elimination; the dual ball and the normal rank of the highest potential
use it.  ``snf.int_det`` reads a determinant off the same elimination.
"""

from __future__ import annotations

from typing import Sequence


def _eliminate(rows: list[list[int]]) -> tuple[int, int]:
    """The rank of the rows and the last pivot, signed by the row swaps taken.

    Fraction-free (Bareiss) elimination over the integers: each update
    divides by the previous pivot, and that division is always exact.  The
    pivot of a column is the first remaining row that has it; taking it out
    from place k of the remaining rows is k row swaps.  For a nonsingular
    square matrix the signed last pivot is the determinant.
    """
    rank, previous, sign = 0, 1, 1
    for col in range(len(rows[0]) if rows else 0):
        k = next((i for i, row in enumerate(rows) if row[col]), None)
        if k is None:
            continue
        rank += 1
        sign *= (-1) ** k
        pivot = rows[k]
        rows = [
            [(pivot[col] * x - row[col] * y) // previous for x, y in zip(row, pivot)]
            for row in rows[:k] + rows[k + 1:]
        ]
        previous = pivot[col]
    return rank, sign * previous


def affine_dimension(points: Sequence[Sequence[int]]) -> int:
    """Dimension of the affine hull of the points (exact rank computation)."""
    if not points:
        return -1
    base = points[0]
    return _eliminate([[p[k] - base[k] for k in range(len(base))] for p in points[1:]])[0]
