"""The intersection norm and its dual unit ball.

The norm of an integer class is the maximum of its pairing with the
classes of all Eulerian coorientations: the support function of the dual
unit ball, the convex hull of those classes.
``coorient.support_coorientation``, a min-cost Eulerian circulation,
computes it at any genus.  A cold ``norm`` runs it once, on a cost
perturbed so that the maximizer is the lexicographically smallest
maximizing class, and builds no ball; ``norm_rational`` scales its class
to integers and asks ``norm``.  Once the ball is kept on the basis, a norm
query reads one pairing per pair {p, -p} of its extreme points.

The norm is symmetric, x(-a) = x(a): reversing an Eulerian coorientation
negates its class, so the ball, its class points, its extreme points and
every position are symmetric under p -> -p.  Every oracle call uses it:
``bounding_box`` takes one query per coordinate direction e_k, the
genus-one walk tests half the polygon's sides, and the vertex test and
every position run once per pair {p, -p}; so does the warm norm's scan.

The ball itself: at genus one it is a polygon walked with the same
circulation; its vertices are the extreme points, and the class points
are the lattice points congruent to the crossing parity class inside it.
Nothing is enumerated there, and the position of a lattice point
(outside, boundary, interior) is read off the polygon's sides, one
integer cross product each.  At higher genus the class points are the
classes counted by ``coorient.eulerian_class_counts``, a transfer-matrix
DP that lists no coorientation, and the highest potential of
``eikonal``, an integer shortest-path computation on the dual graph,
finds the extreme points among them: the class points whose tight
closed dual walks span full rank.  The same potential decides the
position of a lattice point there.  The ball is built once per basis and
kept on it.  Areas come from the shoelace formula.

Positions are decided here and nowhere else: ``_located`` is the one scan
of a box's lattice points congruent to the parity class, and both the
genus-one class points and ``birkhoff.classify`` read theirs from it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cmp_to_key
from math import lcm
from operator import add, index, mul
from typing import Iterator, NamedTuple, Sequence

from . import eikonal
from .coorient import eulerian_class_counts, is_eulerian, support_coorientation
from .errors import DegenerateBall, InternalError
from .homology import Coords, HomologyBasis, gamma_parity
from .homology import _check_basis_map, _class_coords, _walk_weight
from .simplex import affine_dimension
from .surface_map import WallSystemMap, _Frozen

# Gram matrix entries the exposed-vertex test holds at once: 32 MB of int64
_GRAM_BLOCK = 1 << 22


class NormValue(NamedTuple):
    """An exact norm value together with a maximizing Eulerian class."""

    value: int
    witness: Coords


class DualBall(_Frozen):
    """The finite class set of Eulerian coorientations and its convex hull data.

    ``points`` is the deduplicated class set, ``extreme`` its extreme points,
    ``dim`` the affine dimension (always the full rank for valid input).
    For genus one, ``polygon`` walks the extreme points counterclockwise and
    ``g1_area`` is the exact enclosed area.  ``wmap`` and ``basis`` are the
    map and basis the ball was built from; ``contains`` decides positions
    on them.  ``pairs`` holds one entry (p[0], p[1], p, -p) per pair
    {p, -p} of extreme points, p < -p, ascending: the extreme points are
    symmetric, so ``norm`` reads one product p.a per pair.  It is a slot
    set at construction, so the warm norm reads it as a plain attribute.
    ``wmap``, ``basis`` and ``pairs`` are not part of equality, hash or repr.
    """

    __slots__ = ("points", "extreme", "dim", "polygon", "g1_area", "wmap", "basis", "pairs",
                 "__weakref__")

    def __init__(
        self,
        points: tuple[Coords, ...],
        extreme: tuple[Coords, ...],
        dim: int,
        polygon: tuple[Coords, ...] | None = None,
        g1_area: Fraction | None = None,
        wmap: WallSystemMap | None = None,
        basis: HomologyBasis | None = None,
    ) -> None:
        smaller = sorted({min(p, tuple(-x for x in p)) for p in extreme})
        pairs = tuple((p[0], p[1], p, tuple(-x for x in p)) for p in smaller)
        set_field = object.__setattr__
        set_field(self, "points", points)
        set_field(self, "extreme", extreme)
        set_field(self, "dim", dim)
        set_field(self, "polygon", polygon)
        set_field(self, "g1_area", g1_area)
        set_field(self, "wmap", wmap)
        set_field(self, "basis", basis)
        set_field(self, "pairs", pairs)

    def _key(self) -> tuple:
        return (self.points, self.extreme, self.dim, self.polygon, self.g1_area)

    def __repr__(self) -> str:
        return (f"DualBall(points={self.points!r}, extreme={self.extreme!r}, dim={self.dim!r}, "
                f"polygon={self.polygon!r}, g1_area={self.g1_area!r})")

    def __reduce__(self):
        return DualBall, (self.points, self.extreme, self.dim, self.polygon, self.g1_area,
                          self.wmap, self.basis)

    @property
    def ambient_dim(self) -> int:
        return len(self.points[0]) if self.points else 0

    def bounding_box(self) -> tuple[tuple[int, int], ...]:
        return tuple(
            (min(p[k] for p in self.extreme), max(p[k] for p in self.extreme))
            for k in range(self.ambient_dim)
        )


def norm(wmap: WallSystemMap, basis: HomologyBasis, a: Sequence[int]) -> NormValue:
    """Intersection norm of an integer class, with the smallest maximizing class.

    The witness is the lexicographically smallest maximizing class: the
    maximizers form a face of the ball, whose lexicographic minimum is a
    vertex.  On a kept ball one product p.a per pair {p, -p} of extreme
    points (``DualBall.pairs``) gives |p.a|, attained at p or -p by its
    sign; at p.a = 0 both attain it and p, the smaller, is kept, and
    between pairs a tie goes to the smaller witness.  Without a kept ball
    one circulation, ``_support_vertex``, finds the vertex.

    A cold query pays that circulation every time and keeps nothing.  A
    caller with many queries on one basis builds the ball first with
    ``dual_ball``; every later query on the basis, this one and
    ``norm_rational``, then pairs the class with its extreme points.
    """
    ball = basis._memo.get("ball")
    if ball is not None and len(basis.cycles) == 2 and isinstance(a, (tuple, list)):
        # genus one, where warm queries come in bulk: the two coordinates inline
        try:
            a0, a1 = a
            if type(a0) is not int:
                a0 = index(a0)
            if type(a1) is not int:
                a1 = index(a1)
        except (TypeError, ValueError):
            a0, a1 = _class_coords(a, 2)  # raises the exact error
        if basis.wmap is not wmap:
            _check_basis_map(wmap, basis)
        best, witness = -1, None
        for x, y, p, q in ball.pairs:
            value = x * a0 + y * a1
            if value < 0:  # -p maximizes; on a tie p, the smaller, stays
                value, p = -value, q
            if value > best or value == best and p < witness:
                best, witness = value, p
    else:
        a = _class_coords(a, len(basis.cycles))
        if basis.wmap is not wmap:
            _check_basis_map(wmap, basis)
        if ball is None:
            witness = _support_vertex(wmap, basis, a)
            return NormValue(sum(map(mul, witness, a)), witness)
        best, witness = -1, None
        for _, _, p, q in ball.pairs:
            value = sum(map(mul, p, a))
            if value < 0:
                value, p = -value, q
            if value > best or value == best and p < witness:
                best, witness = value, p
    if witness is None:
        raise InternalError("the dual ball has no extreme points")
    return tuple.__new__(NormValue, (best, witness))


def norm_rational(wmap: WallSystemMap, basis: HomologyBasis, a: Sequence) -> Fraction:
    """The norm extended to rational classes: the norm of s * a over s.

    The norm is positively homogeneous, so s, the least common multiple
    of the denominators, scales the class to integers.
    """
    a = [Fraction(x) for x in a]
    scale = lcm(*(x.denominator for x in a))
    return Fraction(norm(wmap, basis, [int(x * scale) for x in a]).value, scale)


def bounding_box(wmap: WallSystemMap, basis: HomologyBasis) -> tuple[tuple[int, int], ...]:
    """The ball's extent per coordinate, from one support query in each direction e_k.

    The ball is centrally symmetric, so the minimum of a coordinate is
    minus its maximum.  Equal to ``dual_ball(wmap, basis).bounding_box()``,
    without building the ball.
    """
    rank = basis.rank
    top = [_support_point(wmap, basis, [int(i == k) for i in range(rank)])[k] for k in range(rank)]
    return tuple((-x, x) for x in top)


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


def _support_point(wmap: WallSystemMap, basis: HomologyBasis, cost: Sequence[int]) -> Coords:
    """A class maximizing the pairing with an integer cost, its coorientation re-checked."""
    coor, cls = support_coorientation(wmap, basis, cost)
    walked = tuple(_walk_weight(coor.signs, b) for b in basis.cycles)
    if not is_eulerian(wmap, coor) or walked != cls:
        raise InternalError(f"the support coorientation for {cost} does not carry its class")
    return cls


def _support_vertex(wmap: WallSystemMap, basis: HomologyBasis, d: Sequence[int]) -> Coords:
    """The lexicographically smallest class maximizing d: a vertex of the ball.

    With B = 2 * sum |cycle_edge_counts| + 1, above every |p_i - q_i|
    between two classes, the cost B^r * d - sum_i B^(r-1-i) * e_i ranks
    classes by d.p first and then by p_1, p_2, ... ascending, so its only
    maximizer is that class.
    """
    r = basis.rank
    big = 2 * sum(abs(x) for row in basis.cycle_edge_counts for x in row) + 1
    return _support_point(
        wmap, basis, tuple(big**r * x - big ** (r - 1 - i) for i, x in enumerate(d))
    )


def _genus_one_ball(
    wmap: WallSystemMap, basis: HomologyBasis
) -> tuple[tuple[Coords, ...], tuple[Coords, ...]]:
    """Class points and extreme points of a rank-2 ball, walked with the support oracle.

    The vertices in the directions e1, e2 and their negations start a
    counterclockwise polygon.  The ball is centrally symmetric, so the
    second half of the polygon negates the first, and only the first
    half's sides are tested: the outward normal of each either finds a
    vertex beyond it, which is inserted together with its negation half
    the polygon further on, or confirms the side and its mirror.  The
    class points are the lattice points congruent to the parity class
    inside the polygon.
    """
    seeds = {_support_vertex(wmap, basis, d) for d in ((1, 0), (0, 1))}
    vertices = sorted(seeds | {(-x, -y) for x, y in seeds}, key=cmp_to_key(_ccw_compare))
    k = 0
    while k < len(vertices) // 2:
        p, q = vertices[k], vertices[k + 1]
        normal = (q[1] - p[1], p[0] - q[0])
        r = _support_vertex(wmap, basis, normal)
        if sum(map(mul, normal, r)) > sum(map(mul, normal, p)):
            half = len(vertices) // 2
            vertices.insert(k + 1, r)
            vertices.insert(k + half + 2, (-r[0], -r[1]))
        else:
            k += 1
    box = tuple((min(v[i] for v in vertices), max(v[i] for v in vertices)) for i in (0, 1))
    points = tuple(p for p, where in _located(wmap, basis, box, vertices) if where != "outside")
    return points, tuple(sorted(vertices))


def _polygon_position(polygon: Sequence[Coords], x: int, y: int) -> str:
    """Position of (x, y) against a counterclockwise convex polygon, from its sides.

    The cross product of a side p -> q with p -> (x, y) is negative when
    the point lies right of the side, outside; zero on the side's line.
    """
    position = "interior"
    px, py = polygon[-1]
    for qx, qy in polygon:
        c = (qx - px) * (y - py) - (qy - py) * (x - px)
        if c < 0:
            return "outside"
        if c == 0:
            position = "boundary"
        px, py = qx, qy
    return position


def _located(
    wmap: WallSystemMap,
    basis: HomologyBasis,
    box: Sequence[tuple[int, int]],
    polygon: Sequence[Coords] | None,
) -> list[tuple[Coords, str]]:
    """The box's lattice points congruent to the parity class, ascending, with their positions.

    p and -p share their position (the ball is symmetric), so it is decided
    once per pair {p, -p}, at whichever comes first in the box: from the
    polygon's sides when there is a polygon, otherwise from the highest
    potential, priced by the pairings ``_box_scan`` carries along.
    """
    parity = gamma_parity(wmap, basis)
    congruent = [range(lo + (lo - p) % 2, hi + 1, 2) for (lo, hi), p in zip(box, parity)]
    positions: dict[Coords, str] = {}
    located = []
    for point, pairings in _box_scan(congruent, basis.edge_weights if polygon is None else ()):
        key = max(point, tuple(-x for x in point))
        if key not in positions:
            positions[key] = (
                _polygon_position(polygon, *point) if polygon is not None
                else eikonal._potential(wmap, basis, eikonal._arcs(basis, pairings)).position
            )
        located.append((point, positions[key]))
    return located


def _box_scan(
    ranges: Sequence[range], weights: Sequence[Coords]
) -> Iterator[tuple[Coords, list[int]]]:
    """The points n of ``product(*ranges)`` in its order, each with its pairings n.w per weight w.

    Moving on to the next point advances one coordinate k by its step and
    resets every later one to its first value, which adds one fixed vector
    per k to the pairings: one addition per weight and point.
    """
    if not all(ranges):
        return
    rank = len(ranges)
    first = [r[0] for r in ranges]
    last = [r[-1] for r in ranges]
    columns = [[w[k] for w in weights] for k in range(rank)]
    advance = []
    for k in range(rank):
        vector = [ranges[k].step * c for c in columns[k]]
        for j in range(k + 1, rank):
            vector = [v - (last[j] - first[j]) * c for v, c in zip(vector, columns[j])]
        advance.append(vector)
    point = first[:]
    pairings = [sum(map(mul, point, w)) for w in weights]
    while True:
        yield tuple(point), pairings
        k = rank - 1
        while point[k] == last[k]:
            point[k] = first[k]
            k -= 1
            if k < 0:
                return
        point[k] += ranges[k].step
        pairings = list(map(add, pairings, advance[k]))


def _exposed(array, rows: int) -> list[bool]:
    """Per class point, whether it is the only maximizer of its own pairing.

    The Gram matrix of the points is formed ``rows`` rows at a time, so
    its memory stays within one block however many points there are.
    """
    flags: list[bool] = []
    for start in range(0, len(array), rows):
        block = array[start:start + rows]
        gram = block @ array.T
        own = (block * block).sum(axis=1)
        flags += ((gram >= own[:, None]).sum(axis=1) == 1).tolist()
    return flags


def _build_ball(wmap: WallSystemMap, basis: HomologyBasis) -> DualBall:
    """The dual ball of the basis, built afresh.

    At genus one the polygon is walked with the support oracle and nothing
    is counted.  At higher genus the class points are the classes of the
    transfer-matrix count, and a class point is extreme iff the ball's
    normal cone there is full-dimensional, i.e. its highest potential has
    full normal rank; a point that is the only maximizer of its own
    pairing is an exposed vertex and skips that test.  p and -p are
    extreme together, so the test runs once per pair, on max(p, -p).
    """
    if basis.rank == 2:
        points, extreme = _genus_one_ball(wmap, basis)
    else:
        import numpy as np

        classes = eulerian_class_counts(wmap, basis)[1]
        points = tuple(sorted(classes))
        array = np.array(points, dtype=np.int64)
        exposed = _exposed(array, max(1, _GRAM_BLOCK // len(points)))
        vertex: dict[Coords, bool] = {}  # max(p, -p) -> whether p and -p are extreme
        extreme = []
        for p, alone in zip(points, exposed):
            key = max(p, tuple(-x for x in p))
            if not alone and key not in vertex:
                vertex[key] = eikonal.highest_potential(wmap, basis, key).normal_rank == basis.rank
            if alone or vertex[key]:
                extreme.append(p)
        extreme = tuple(extreme)
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


def dual_ball(wmap: WallSystemMap, basis: HomologyBasis) -> DualBall:
    """The dual unit ball with exact extreme points, kept on the basis.

    Every call with the same basis object returns the same ball, for the
    basis's lifetime.  No ball lists a coorientation, so the enumeration
    cap does not apply; above genus one the class count obeys its state
    budget, MAX_DP_STATES.  Raises InternalError for a basis of another map.
    """
    _check_basis_map(wmap, basis)
    ball = basis._memo.get("ball")
    if ball is None:
        ball = basis._memo["ball"] = _build_ball(wmap, basis)
    return ball


def contains(ball: DualBall, p: Sequence[int]) -> str:
    """Exact position of a lattice point: 'outside', 'boundary', or 'interior'.

    At genus one it is read off the polygon's sides; above genus one, and
    for a ball without a polygon, it is the highest potential's position.
    """
    if ball.dim < ball.ambient_dim:
        raise DegenerateBall(
            f"dual ball has affine dimension {ball.dim} < {ball.ambient_dim}"
        )
    if ball.wmap is None or ball.basis is None:
        raise ValueError("the ball carries no map and basis; build it with dual_ball")
    if ball.polygon is not None:
        return _polygon_position(ball.polygon, *_class_coords(p, 2, "target class"))
    return eikonal.highest_potential(ball.wmap, ball.basis, p).position
