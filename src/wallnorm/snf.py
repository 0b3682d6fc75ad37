"""Exact integer matrix tools: determinant and unimodular inverse.

Everything here runs over Python's arbitrary-precision integers; there
is no floating point and no modular shortcut anywhere.  Both come from
the one fraction-free elimination of ``simplex``; ``set_user_basis``
uses them to accept a proposed basis and recompute its cocycles.  The
module holds no Smith normal form despite its name: ``homology`` builds
the automatic basis by tree-cotree contraction.
"""

from __future__ import annotations

from typing import Sequence

from .simplex import _eliminate


def int_det(matrix: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix (fraction-free Bareiss)."""
    rank, pivot = _eliminate([[int(x) for x in row] for row in matrix])
    return pivot if rank == len(matrix) else 0


def unimodular_inverse(matrix: Sequence[Sequence[int]]) -> list[list[int]] | None:
    """Integer inverse of a square matrix, or None when |det| != 1.

    The inverse is the adjugate divided by det, which is det times the
    adjugate when det = +-1: entry (i, j) is det times the signed
    determinant of the matrix without row j and column i.
    """
    det = int_det(matrix)
    if det not in (1, -1):
        return None
    n = len(matrix)
    return [
        [
            det * (-1) ** (i + j) * int_det(
                [[x for c, x in enumerate(row) if c != i] for r, row in enumerate(matrix) if r != j]
            )
            for j in range(n)
        ]
        for i in range(n)
    ]
