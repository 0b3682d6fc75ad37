"""Shipped wall-system fixtures: torus grids, geodesic arrangements, and
randomized valid maps.

The grid system G(m, n) consists of m horizontal and n vertical circles on
the torus, crossing in m*n double points.  Vertices are indexed row-major
as v(i, j) = i*n + j; the darts of vertex v are 4v..4v+3 in rotation order
(east, north, west, south); horizontal edges run east (ids i*n+j), vertical
edges run north (ids m*n + i*n + j).

The standard grid basis pairs a horizontal dual cycle (crossing every
vertical circle once, eastward) with a vertical dual cycle (crossing every
horizontal circle once, southward).

``torus_geodesic_arrangement`` generalizes the grids: it builds the
combinatorial map of any finite collection of closed flat-torus geodesics
given by primitive classes and rational base points, with all crossing
geometry computed exactly.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cmp_to_key
from math import ceil, floor, gcd
from typing import Sequence

from .homology import HomologyBasis, format_basis_file, set_user_basis
from .errors import InternalError, MalformedInput, WallNormError
from .normball import _ccw_compare
from .surface_map import Walk, WallSystemMap, parse_wall_system


def grid_text(m: int, n: int) -> str:
    """Wall-system file text for the torus grid G(m, n), m, n >= 1."""
    if m < 1 or n < 1:
        raise ValueError("grid parameters must be at least 1")
    lines = [f"# torus grid G({m},{n}): {m} horizontal, {n} vertical circles"]
    lines.append(f"vertices {m * n}")

    def vid(i: int, j: int) -> int:
        return (i % m) * n + (j % n)

    for i in range(m):
        for j in range(n):
            v = vid(i, j)
            base = 4 * v
            lines.append(f"vertex {v}: {base} {base + 1} {base + 2} {base + 3}")
    for i in range(m):
        for j in range(n):
            e = i * n + j
            tail = 4 * vid(i, j)          # east dart
            head = 4 * vid(i, j + 1) + 2  # west dart of the next crossing
            lines.append(f"edge {e}: {tail} {head}")
    for i in range(m):
        for j in range(n):
            e = m * n + i * n + j
            tail = 4 * vid(i, j) + 1      # north dart
            head = 4 * vid(i + 1, j) + 3  # south dart of the crossing above
            lines.append(f"edge {e}: {tail} {head}")
    return "\n".join(lines) + "\n"


def grid_map(m: int, n: int) -> WallSystemMap:
    return parse_wall_system(grid_text(m, n))


def horizontal_edge(m: int, n: int, i: int, j: int) -> int:
    return (i % m) * n + (j % n)


def vertical_edge(m: int, n: int, i: int, j: int) -> int:
    return m * n + (i % m) * n + (j % n)


def grid_basis_walks(m: int, n: int) -> tuple[Walk, Walk]:
    """The standard grid basis cycles as dual walks (horizontal, vertical)."""
    horizontal = tuple((vertical_edge(m, n, 0, j + 1), +1) for j in range(n))
    vertical = tuple((horizontal_edge(m, n, -k, 0), +1) for k in range(m))
    return horizontal, vertical


def grid_basis(wmap: WallSystemMap, m: int, n: int) -> HomologyBasis:
    return set_user_basis(wmap, grid_basis_walks(m, n))


def grid_basis_text(m: int, n: int) -> str:
    return format_basis_file(list(grid_basis_walks(m, n)))


def torus_geodesic_arrangement(
    geodesics: Sequence[tuple[tuple[int, int], tuple]]
) -> WallSystemMap:
    """Combinatorial map of closed geodesics on the flat torus R^2/Z^2.

    Each geodesic is a pair ((p, q), (x, y)): the primitive direction class
    and a rational base point; the geodesic is {(x, y) + t (p, q)} mod 1.
    All crossings are computed in exact rational arithmetic.  Raises
    MalformedInput for non-primitive classes, coincident geodesics, triple
    points (perturb the base points), or a geodesic with no crossings
    (which the dart encoding cannot represent).
    """
    specs: list[tuple[tuple[int, int], tuple[Fraction, Fraction]]] = []
    for klass, base in geodesics:
        p, q = int(klass[0]), int(klass[1])
        if (p, q) == (0, 0) or gcd(abs(p), abs(q)) != 1:
            raise MalformedInput(f"geodesic class {klass} is not primitive")
        specs.append(((p, q), (Fraction(base[0]) % 1, Fraction(base[1]) % 1)))

    # all pairwise crossings, as parameters along both geodesics
    geo_passes: list[list[tuple[Fraction, int]]] = [[] for _ in specs]
    vertex_geos: list[tuple[int, int]] = []
    seen_points: dict[tuple[Fraction, Fraction], int] = {}
    for i in range(len(specs)):
        (pi, qi), bi = specs[i]
        for j in range(i + 1, len(specs)):
            (pj, qj), bj = specs[j]
            det = pi * qj - qi * pj
            c1, c2 = bj[0] - bi[0], bj[1] - bi[1]
            if det == 0:
                # parallel; coincident iff the offset pairs with the class
                # integrally (then the two parametrize one circle)
                if (c1 * qi - c2 * pi).denominator == 1:
                    raise MalformedInput(f"geodesics {i} and {j} coincide")
                continue
            m_lo = floor(-c1) - abs(pi) - abs(pj) - 1
            m_hi = ceil(-c1) + abs(pi) + abs(pj) + 1
            n_lo = floor(-c2) - abs(qi) - abs(qj) - 1
            n_hi = ceil(-c2) + abs(qi) + abs(qj) + 1
            found = []
            for m in range(m_lo, m_hi + 1):
                for n in range(n_lo, n_hi + 1):
                    t = (qj * (c1 + m) - pj * (c2 + n)) / det
                    s = (qi * (c1 + m) - pi * (c2 + n)) / det
                    if 0 <= t < 1 and 0 <= s < 1:
                        found.append((t, s))
            if len(found) != abs(det):
                raise InternalError("crossing count mismatch")
            for t, s in found:
                point = ((bi[0] + t * pi) % 1, (bi[1] + t * qi) % 1)
                if point != ((bj[0] + s * pj) % 1, (bj[1] + s * qj) % 1):
                    raise InternalError("crossing parameters disagree on the point")
                if point in seen_points:
                    raise MalformedInput(
                        f"triple point at {point}; perturb the base points"
                    )
                vid = len(vertex_geos)
                seen_points[point] = vid
                vertex_geos.append((i, j))
                geo_passes[i].append((t, vid))
                geo_passes[j].append((s, vid))

    if not vertex_geos:
        raise MalformedInput("the geodesics have no crossings")
    for g, passes in enumerate(geo_passes):
        if not passes:
            raise MalformedInput(f"geodesic {g} crosses nothing and cannot be encoded")

    # darts: four directed geodesic ends per crossing, counterclockwise
    dart_of: dict[tuple[int, int, int], int] = {}
    rotations = []
    for vid, (i, j) in enumerate(vertex_geos):
        ends = []
        for g in (i, j):
            p, q = specs[g][0]
            ends.append(((p, q), g, +1))
            ends.append(((-p, -q), g, -1))
        ends.sort(key=cmp_to_key(lambda a, b: _ccw_compare(a[0], b[0])))
        rotation = []
        for k, (_, g, sign) in enumerate(ends):
            dart = 4 * vid + k
            dart_of[(vid, g, sign)] = dart
            rotation.append(dart)
        rotations.append(tuple(rotation))

    # edges: arcs between consecutive crossings along each geodesic
    edges = []
    for g, passes in enumerate(geo_passes):
        passes.sort()
        count = len(passes)
        for k in range(count):
            _, here = passes[k]
            _, after = passes[(k + 1) % count]
            edges.append((dart_of[(here, g, +1)], dart_of[(after, g, -1)]))

    return WallSystemMap(len(vertex_geos), rotations, edges)


def random_wall_system(vertex_count: int, rng: random.Random, max_tries: int = 10000) -> WallSystemMap:
    """A uniformly scrambled valid map: random rotations, random edge pairing.

    Vertices keep the dart blocks 4v..4v+3; candidates failing validation
    (disconnected, wrong Euler characteristic) are re-drawn.
    """
    darts = list(range(4 * vertex_count))
    for _ in range(max_tries):
        rotations = []
        for v in range(vertex_count):
            block = darts[4 * v : 4 * v + 4]
            rng.shuffle(block)
            rotations.append(tuple(block))
        shuffled = darts[:]
        rng.shuffle(shuffled)
        edges = [(shuffled[2 * k], shuffled[2 * k + 1]) for k in range(2 * vertex_count)]
        try:
            return WallSystemMap(vertex_count, rotations, edges)
        except WallNormError:
            continue
    raise RuntimeError(f"no valid random map with V={vertex_count} after {max_tries} tries")


def four_geodesic_example() -> WallSystemMap:
    """Four flat-torus geodesics whose dual ball holds ten congruent points.

    Two vertical circles, one horizontal, one diagonal: five double points,
    and the classification finds two interior points (cross sections) and
    eight boundary points (transverse only).
    """
    return torus_geodesic_arrangement(
        [
            ((0, 1), (Fraction(1, 4), 0)),
            ((0, 1), (Fraction(3, 4), 0)),
            ((1, 0), (0, Fraction(1, 2))),
            ((1, 1), (0, Fraction(1, 8))),
        ]
    )


def genus2_example() -> WallSystemMap:
    """A fixed filling wall system on the genus-2 surface (V=3, one face, c=1)."""
    return WallSystemMap(3, _GENUS2_ROTATIONS, _GENUS2_EDGES)


def one_curve_example() -> WallSystemMap:
    """A fixed one-curve wall system on the torus (V=2, c=1)."""
    return WallSystemMap(2, _ONE_CURVE_ROTATIONS, _ONE_CURVE_EDGES)


# Frozen literals for the special examples (properties validated in the tests).
_GENUS2_ROTATIONS = ((2, 3, 1, 0), (6, 5, 4, 7), (10, 9, 11, 8))
_GENUS2_EDGES = ((2, 11), (8, 3), (10, 7), (5, 9), (0, 4), (6, 1))
_ONE_CURVE_ROTATIONS = ((0, 3, 2, 1), (7, 4, 5, 6))
_ONE_CURVE_EDGES = ((1, 6), (5, 3), (4, 2), (0, 7))
