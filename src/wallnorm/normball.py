"""The intersection norm through its dual unit ball.

The norm of an integer class is the maximum of its pairing with the
classes of all Eulerian coorientations; the dual unit ball is the convex
hull of those classes.  Everything is decided exactly: extreme points by
rational in-hull feasibility, the position of a lattice point (outside,
boundary, interior) by the highest potential of ``eikonal``, an integer
shortest-path computation on the dual graph, and areas by the shoelace
formula.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cmp_to_key
from typing import Sequence

from .coorient import enumerate_eulerian
from .eikonal import highest_potential
from .errors import DegenerateBall
from .homology import Coords, HomologyBasis
from .simplex import affine_dimension, in_hull
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
    """Multiset of Eulerian classes (cached per map and basis)."""
    return enumerate_eulerian(wmap, basis).classes


def _class_points(wmap: WallSystemMap, basis: HomologyBasis) -> tuple[Coords, ...]:
    return tuple(sorted(eulerian_class_counter(wmap, basis)))


def norm(wmap: WallSystemMap, basis: HomologyBasis, a: Sequence[int]) -> NormValue:
    """Intersection norm of an integer class, by maximizing over Eulerian classes."""
    a = tuple(int(x) for x in a)
    points = _class_points(wmap, basis)
    if len(a) != basis.rank:
        raise ValueError(f"class must have {basis.rank} coordinates")
    best = None
    witness = None
    for p in points:
        value = sum(pi * ai for pi, ai in zip(p, a))
        if best is None or value > best or (value == best and p < witness):
            best = value
            witness = p
    return NormValue(best, witness)


def norm_rational(wmap: WallSystemMap, basis: HomologyBasis, a: Sequence) -> Fraction:
    """The norm extended to rational classes (max of linear functionals)."""
    a = tuple(Fraction(x) for x in a)
    if len(a) != basis.rank:
        raise ValueError(f"class must have {basis.rank} coordinates")
    points = _class_points(wmap, basis)
    return max(sum(pi * ai for pi, ai in zip(p, a)) for p in points)


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


def dual_ball(wmap: WallSystemMap, basis: HomologyBasis) -> DualBall:
    """Construct the dual unit ball with exact extreme points.

    A point is extreme iff it is not a convex combination of the other
    class points, decided by rational feasibility.
    """
    points = _class_points(wmap, basis)
    extreme = tuple(
        p for p in points if not in_hull([q for q in points if q != p], p)
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
    return DualBall(points, extreme, dim, polygon, area, wmap, basis)


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
