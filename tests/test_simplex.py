import random
from fractions import Fraction

from wallnorm.simplex import affine_dimension

from reference import (
    INFEASIBLE, OPTIMAL, UNBOUNDED, hull_position, smith_normal_form, solve_lp,
)


def F(x):
    return Fraction(x)


def test_lp_simple_optimum():
    # max x + y subject to x + y + s = 2 is degenerate as equalities; use
    # a transport-style problem: x1 + x2 = 2, x2 + x3 = 1, max x1 + 3 x3
    a = [[F(1), F(1), F(0)], [F(0), F(1), F(1)]]
    b = [F(2), F(1)]
    status, x, value = solve_lp(a, b, [F(1), F(0), F(3)])
    assert status == OPTIMAL
    assert value == 5  # x = (2, 0, 1)
    assert x == [F(2), F(0), F(1)]


def test_lp_infeasible():
    a = [[F(1), F(1)], [F(1), F(1)]]
    b = [F(1), F(3)]
    status, _, _ = solve_lp(a, b, [F(0), F(0)])
    assert status == INFEASIBLE


def test_lp_unbounded():
    # x - y = 1 with objective x: x can grow with y
    a = [[F(1), F(-1)]]
    b = [F(1)]
    status, _, _ = solve_lp(a, b, [F(1), F(0)])
    assert status == UNBOUNDED


def test_lp_exact_fractions():
    # x = 1/3 forced; objective picks it up exactly
    a = [[F(3)]]
    b = [F(1)]
    status, x, value = solve_lp(a, b, [F(1)])
    assert status == OPTIMAL
    assert x == [Fraction(1, 3)]
    assert value == Fraction(1, 3)


def point_in_convex_polygon(vertices, p):
    """Independent 2D oracle: exact half-plane membership test.

    vertices must be in counterclockwise order; returns 'outside',
    'boundary', or 'interior'.
    """
    on_edge = False
    n = len(vertices)
    for i in range(n):
        ax, ay = vertices[i]
        bx, by = vertices[(i + 1) % n]
        cross = (bx - ax) * (p[1] - ay) - (by - ay) * (p[0] - ax)
        if cross < 0:
            return "outside"
        if cross == 0:
            # must also lie within the segment's bounding box
            if min(ax, bx) <= p[0] <= max(ax, bx) and min(ay, by) <= p[1] <= max(ay, by):
                on_edge = True
            else:
                return "outside"
    return "boundary" if on_edge else "interior"


def test_hull_position_against_polygon_oracle():
    square = [(2, 2), (-2, 2), (-2, -2), (2, -2)]
    points = square + [(0, 0), (2, 0)]
    for x in range(-3, 4):
        for y in range(-3, 4):
            expected = point_in_convex_polygon(square, (x, y))
            assert hull_position(points, (x, y)) == expected, (x, y)


def test_hull_position_random_polygons():
    rng = random.Random(9)
    for _ in range(10):
        pts = [(rng.randrange(-4, 5), rng.randrange(-4, 5)) for _ in range(8)]
        # symmetrize so the hull is full-dimensional around the origin
        pts = pts + [(-x, -y) for x, y in pts] + [(3, 0), (-3, 0), (0, 3), (0, -3)]
        hull = [p for p in pts if hull_position([q for q in pts if q != p], p) == "outside"]
        # order hull counterclockwise by exact angle comparison
        from wallnorm.normball import _ccw_compare
        from functools import cmp_to_key

        hull = sorted(set(hull), key=cmp_to_key(_ccw_compare))
        for x in range(-5, 6):
            for y in range(-5, 6):
                expected = point_in_convex_polygon(hull, (x, y))
                assert hull_position(pts, (x, y)) == expected, (pts, (x, y))


def test_hull_position_edge_cases():
    assert hull_position([(0, 0)], (0, 0)) != "outside"
    assert hull_position([(0, 0)], (1, 0)) == "outside"
    assert hull_position([], (0, 0)) == "outside"
    assert hull_position([(1, 1), (-1, -1)], (0, 0)) != "outside"


def test_affine_dimension():
    assert affine_dimension([(0, 0)]) == 0
    assert affine_dimension([(0, 0), (1, 1)]) == 1
    assert affine_dimension([(0, 0), (1, 0), (0, 1)]) == 2
    assert affine_dimension([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)]) == 2


def test_affine_dimension_matches_smith_rank():
    rng = random.Random(5)
    for _ in range(300):
        dim, k = rng.randint(1, 6), rng.randint(0, 6)
        gens = [[rng.randint(-3, 3) for _ in range(dim)] for _ in range(k)]
        base = [rng.randint(-5, 5) for _ in range(dim)]
        points = [tuple(base)]
        for _ in range(rng.randint(0, 12)):
            coeffs = [rng.randint(-2, 2) for _ in range(k)]
            points.append(tuple(
                b + sum(c * g[j] for c, g in zip(coeffs, gens)) for j, b in enumerate(base)
            ))
        diffs = [[x - b for x, b in zip(p, base)] for p in points[1:]]
        expected = smith_normal_form(diffs, len(diffs), dim).rank if diffs else 0
        assert affine_dimension(points) == expected, points
