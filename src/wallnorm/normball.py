"""The intersection norm through its dual unit ball.

The norm of an integer class is the maximum of its pairing with the
classes of all Eulerian coorientations; the dual unit ball is the convex
hull of those classes, so the maximum is attained at an extreme point.
Everything is decided exactly by the highest potential of ``eikonal``, an
integer shortest-path computation on the dual graph: the position of a
lattice point (outside, boundary, interior), and the extreme points, the
class points whose tight closed dual walks span full rank.  The ball is
built once per basis and kept on it; norm queries maximize over its
extreme points.  Areas come from the shoelace formula.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cmp_to_key
from operator import mul
from typing import Sequence

from .coorient import _check_cap, enumerate_eulerian
from .eikonal import highest_potential
from .errors import DegenerateBall, InternalError
from .homology import Coords, HomologyBasis, _check_basis_map
from .simplex import affine_dimension
from .surface_map import WallSystemMap


@dataclass(frozen=True)
class NormValue:
    """An exact norm value together with a maximizing Eulerian class."""

    value: int
    witness: Coords


@dataclass(frozen=True)
class DualBall:
    """The finite class set of Eulerian coorientations and its convex hull data.

    ``points`` is the deduplicated class set, ``extreme`` its extreme points,
    ``dim`` the affine dimension (always the full rank for valid input).
    For genus one, ``polygon`` walks the extreme points counterclockwise and
    ``g1_area`` is the exact enclosed area.  ``wmap`` and ``basis`` are the
    map and basis the ball was built from; ``contains`` decides positions
    on them.
    """

    points: tuple[Coords, ...]
    extreme: tuple[Coords, ...]
    dim: int
    polygon: tuple[Coords, ...] | None = None
    g1_area: Fraction | None = None
    wmap: WallSystemMap | None = field(default=None, compare=False, repr=False)
    basis: HomologyBasis | None = field(default=None, compare=False, repr=False)

    @property
    def ambient_dim(self) -> int:
        return len(self.points[0]) if self.points else 0

    def bounding_box(self) -> tuple[tuple[int, int], ...]:
        return tuple(
            (min(p[k] for p in self.extreme), max(p[k] for p in self.extreme))
            for k in range(self.ambient_dim)
        )


def eulerian_class_counter(wmap: WallSystemMap, basis: HomologyBasis) -> Counter:
    """Multiset of Eulerian classes (kept on the basis)."""
    return enumerate_eulerian(wmap, basis).classes


def _extreme(wmap: WallSystemMap, basis: HomologyBasis) -> tuple[Coords, ...]:
    extreme = _memo_ball(wmap, basis).extreme
    if not extreme:
        raise InternalError("the dual ball has no extreme points")
    return extreme


def norm(wmap: WallSystemMap, basis: HomologyBasis, a: Sequence[int]) -> NormValue:
    """Intersection norm of an integer class, maximized over the ball's extreme points.

    The witness is the lexicographically smallest maximizing class: the
    maximizers form a face of the ball, whose lexicographic minimum is a
    vertex, and the extreme points are in ascending order.
    """
    a = tuple(int(x) for x in a)
    extreme = _extreme(wmap, basis)
    if len(a) != basis.rank:
        raise ValueError(f"class must have {basis.rank} coordinates")
    values = [sum(map(mul, p, a)) for p in extreme]
    best = max(values)
    return NormValue(best, extreme[values.index(best)])


def norm_rational(wmap: WallSystemMap, basis: HomologyBasis, a: Sequence) -> Fraction:
    """The norm extended to rational classes (max of linear functionals)."""
    a = tuple(Fraction(x) for x in a)
    if len(a) != basis.rank:
        raise ValueError(f"class must have {basis.rank} coordinates")
    return max(sum(map(mul, p, a)) for p in _extreme(wmap, basis))


def _ccw_compare(p: Coords, q: Coords) -> int:
    """Counterclockwise-from-positive-x-axis angular order around the origin."""

    def half(v: Coords) -> int:
        return 0 if (v[1] > 0 or (v[1] == 0 and v[0] > 0)) else 1

    hp, hq = half(p), half(q)
    if hp != hq:
        return -1 if hp < hq else 1
    cross = p[0] * q[1] - p[1] * q[0]
    if cross > 0:
        return -1
    if cross < 0:
        return 1
    return 0


def _build_ball(wmap: WallSystemMap, basis: HomologyBasis) -> tuple[int, DualBall]:
    """The Eulerian item count and the dual ball, with exact extreme points.

    A class point is extreme iff the ball's normal cone there is
    full-dimensional, i.e. its highest potential has full normal rank.
    """
    eul = enumerate_eulerian(wmap, basis)
    points = eul.distinct_classes()
    extreme = tuple(
        p for p in points if highest_potential(wmap, basis, p).normal_rank == basis.rank
    )
    dim = affine_dimension(points)
    polygon = None
    area = None
    if basis.rank == 2 and dim == 2:
        polygon = tuple(sorted(extreme, key=cmp_to_key(_ccw_compare)))
        twice = sum(
            polygon[i][0] * polygon[(i + 1) % len(polygon)][1]
            - polygon[(i + 1) % len(polygon)][0] * polygon[i][1]
            for i in range(len(polygon))
        )
        area = abs(Fraction(twice, 2))
    return eul.count, DualBall(points, extreme, dim, polygon, area, wmap, basis)


def _memo_ball(wmap: WallSystemMap, basis: HomologyBasis) -> DualBall:
    # norm reads the ball here rather than through dual_ball, so that a
    # norm query does not count as a ball construction in traced runs
    _check_basis_map(wmap, basis)
    entry = basis._memo.get("ball")
    if entry is None:
        entry = basis._memo["ball"] = _build_ball(wmap, basis)
    else:  # the cap acts on a kept ball as on a fresh enumeration
        _check_cap(entry[0])
    return entry[1]


def dual_ball(wmap: WallSystemMap, basis: HomologyBasis) -> DualBall:
    """The dual unit ball with exact extreme points, kept on the basis.

    Every call with the same basis object returns the same ball, for the
    basis's lifetime; the enumeration cap is re-checked against the kept
    item count.  Raises InternalError for a basis of another map.
    """
    return _memo_ball(wmap, basis)


def contains(ball: DualBall, p: Sequence[int]) -> str:
    """Exact position of a lattice point: 'outside', 'boundary', or 'interior'."""
    p = tuple(int(x) for x in p)
    if ball.dim < ball.ambient_dim:
        raise DegenerateBall(
            f"dual ball has affine dimension {ball.dim} < {ball.ambient_dim}"
        )
    if ball.wmap is None or ball.basis is None:
        raise ValueError("the ball carries no map and basis; build it with dual_ball")
    return highest_potential(ball.wmap, ball.basis, p).position
