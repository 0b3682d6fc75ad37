import gc
import io
import math
import pickle
import random
import weakref
from collections import Counter
from fractions import Fraction
from functools import cache
from itertools import combinations, product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wallnorm import (
    Coorientation,
    class_of,
    contains,
    dual_ball,
    enumerate_eulerian,
    gamma_parity,
    highest_potential,
    homology_basis,
    is_eulerian,
    norm,
    norm_rational,
    support_coorientation,
)
from wallnorm import birkhoff, cli, coorient, eikonal, normball
from wallnorm.errors import DegenerateBall, InternalError
from wallnorm.fixtures import (
    four_geodesic_example,
    genus2_example,
    grid_basis,
    grid_basis_text,
    grid_map,
    grid_text,
    one_curve_example,
    random_wall_system,
    torus_geodesic_arrangement,
)
from wallnorm.normball import DualBall, NormValue
from wallnorm.simplex import affine_dimension

import reference
from reference import hull_position


def test_norm_g22_grid_formula(g22, b22):
    assert norm(g22, b22, (4, 1)).value == 10
    for p in range(-3, 4):
        for q in range(-3, 4):
            assert norm(g22, b22, (p, q)).value == 2 * abs(p) + 2 * abs(q)


def test_norm_zero(g22, b22):
    result = norm(g22, b22, (0, 0))
    assert result.value == 0


def test_norm_witness_attains(g22, b22, genus2, genus2_basis):
    rng = random.Random(2)
    for wmap, basis in ((g22, b22), (genus2, genus2_basis)):
        for _ in range(20):
            a = tuple(rng.randrange(-3, 4) for _ in range(basis.rank))
            result = norm(wmap, basis, a)
            assert sum(x * y for x, y in zip(result.witness, a)) == result.value
            assert result.witness in enumerate_eulerian(wmap, basis).classes


def test_norm_rational(g22, b22):
    assert norm_rational(g22, b22, (Fraction(1, 2), 0)) == 1
    rng = random.Random(4)
    for _ in range(20):
        a = (Fraction(rng.randrange(-8, 9), rng.randrange(1, 5)),
             Fraction(rng.randrange(-8, 9), rng.randrange(1, 5)))
        q = Fraction(rng.randrange(1, 7), rng.randrange(1, 7))
        va = norm_rational(g22, b22, a)
        assert norm_rational(g22, b22, tuple(q * x for x in a)) == q * va
        assert norm_rational(g22, b22, tuple(-x for x in a)) == va


def _differential_maps():
    """G(1,1)...G(3,4), the named examples, and seeded random maps of rank 2, 4, 6."""
    maps = []
    for m, n in product((1, 2, 3), (1, 2, 3, 4)):
        wmap = grid_map(m, n)
        maps.append((wmap, grid_basis(wmap, m, n)))
    for wmap in (four_geodesic_example(), genus2_example()):
        maps.append((wmap, homology_basis(wmap)))
    rng = random.Random(61)
    wanted = {2: 3, 4: 3, 6: 2}
    while any(wanted.values()):
        wmap = random_wall_system(rng.choice((2, 3, 4, 5, 6)), rng)
        basis = homology_basis(wmap)
        if wanted.get(basis.rank):
            wanted[basis.rank] -= 1
            maps.append((wmap, basis))
    return maps


def test_norm_equals_max_over_all_classes():
    """Maximizing over the extreme points loses neither value nor witness, cold or warm."""
    rng = random.Random(62)
    for wmap, basis in _differential_maps():
        points = sorted(enumerate_eulerian(wmap, basis).classes)

        def check(a):
            values = [sum(x * y for x, y in zip(p, a)) for p in points]
            best = max(values)  # the first maximizer is the smallest one
            result = norm(wmap, basis, a)
            assert (result.value, result.witness) == (best, points[values.index(best)]), a
            return values.count(best)

        queries = [(0,) * basis.rank]
        queries += [tuple(rng.randint(-5, 5) for _ in range(basis.rank)) for _ in range(100)]
        for a in queries:
            check(a)
        for _ in range(20):
            a = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(basis.rank))
            assert norm_rational(wmap, basis, a) == max(
                sum(x * y for x, y in zip(p, a)) for p in points
            ), a
        ball = dual_ball(wmap, basis)
        assert ball is dual_ball(wmap, basis)
        # warm: the same queries read the kept ball, and at genus one each
        # outer edge normal of the polygon, where two vertices tie
        for a in queries:
            check(a)
        if basis.rank == 2:
            for p, q in zip(ball.polygon, ball.polygon[1:] + ball.polygon[:1]):
                assert check((q[1] - p[1], p[0] - q[0])) >= 2, (p, q)


def test_norm_refuses_a_ball_without_extreme_points(g22, b22, monkeypatch):
    empty = DualBall(points=((0, 0),), extreme=(), dim=2)
    monkeypatch.setitem(b22._memo, "ball", empty)
    with pytest.raises(InternalError, match="no extreme points"):
        norm(g22, b22, (1, 0))
    with pytest.raises(InternalError, match="no extreme points"):
        norm_rational(g22, b22, (Fraction(1, 2), 0))


def test_norm_value_is_a_named_pair(g22):
    value = NormValue(3, (1, -2))
    assert repr(value) == "NormValue(value=3, witness=(1, -2))"
    twin = NormValue(3, (1, -2))
    assert value == twin and hash(value) == hash(twin) and value is not twin
    assert value != NormValue(3, (-1, 2)) and value != NormValue(4, (1, -2))
    assert (value.value, value.witness) == value == (3, (1, -2))  # a plain pair compares equal
    with pytest.raises(AttributeError):
        value.value = 4
    with pytest.raises(AttributeError):
        value.witness = (0, 0)
    copy = pickle.loads(pickle.dumps(value))
    assert type(copy) is NormValue and copy == value
    # warm and cold answers are the same kind of object
    cold = norm(g22, homology_basis(g22), (2, 1))
    kept = homology_basis(g22)
    dual_ball(g22, kept)
    warm = norm(g22, kept, (2, 1))
    assert type(cold) is type(warm) is NormValue and warm == cold
    assert repr(warm) == f"NormValue(value={warm.value}, witness={warm.witness!r})"


def _warm_norm_cases():
    """G(m, n), m, n <= 5, with grid and automatic bases, the genus-one examples, 40 random maps."""
    cases = _genus_one_position_cases()
    wmap = one_curve_example()
    return cases + [(wmap, homology_basis(wmap))]


def test_warm_norm_equals_the_full_scan():
    # one product per pair {p, -p} against the ascending scan of every extreme point,
    # on a box of classes, a = 0, and each side normal of the polygon and its multiples,
    # where two vertices tie
    box = list(product(range(-7, 8), repeat=2))
    for wmap, basis in _warm_norm_cases():
        ball = dual_ball(wmap, basis)
        normals = [(q[1] - p[1], p[0] - q[0])
                   for p, q in zip(ball.polygon, ball.polygon[1:] + ball.polygon[:1])]
        ties = [(k * x, k * y) for x, y in normals for k in (1, 2, 3)]
        for a in box + ties:
            got = norm(wmap, basis, a)
            assert (got.value, got.witness) == reference.warm_norm(ball, a), (wmap.digest, a)
        for p, q in zip(ball.polygon, ball.polygon[1:] + ball.polygon[:1]):
            assert norm(wmap, basis, (q[1] - p[1], p[0] - q[0])).witness == min(p, q)
        assert norm(wmap, basis, [0, 0]).witness == min(ball.extreme), wmap.digest


def test_kept_results_die_with_their_map_and_basis():
    enabled = gc.isenabled()
    gc.disable()
    try:
        wmap = grid_map(2, 3)
        # the map keeps nothing, so with it alive these die with their last reference
        auto = weakref.ref(homology_basis(wmap))
        assert auto() is None
        item = weakref.ref(enumerate_eulerian(wmap).items[0])
        assert item() is None
        basis = homology_basis(wmap)
        ball = weakref.ref(dual_ball(wmap, basis))
        assert ball() is not None
        del wmap, basis
        gc.collect()  # the ball and the basis that keeps it refer to each other
        assert ball() is None
    finally:
        if enabled:
            gc.enable()


def test_basis_of_another_map_is_refused():
    g22, g14 = grid_map(2, 2), grid_map(1, 4)
    b14 = homology_basis(g14)

    def refused():
        for call in (lambda: enumerate_eulerian(g22, b14), lambda: dual_ball(g22, b14),
                     lambda: norm(g22, b14, (1, 0))):
            with pytest.raises(InternalError, match="different map"):
                call()

    refused()  # cold
    assert b14._memo == {}
    assert len(enumerate_eulerian(g14, b14).classes) == 10
    assert dual_ball(g14, b14).wmap is g14
    refused()  # warm
    assert len(enumerate_eulerian(g14, b14).classes) == 10
    assert len(enumerate_eulerian(g22).classes) == 9
    # with an equal map parsed anew the basis is accepted
    assert len(enumerate_eulerian(grid_map(1, 4), b14).classes) == 10


def test_dual_ball_g11(g11, b11):
    # oracle: enumeration gives exactly the four corner classes
    classes = set(enumerate_eulerian(g11, b11).classes)
    assert classes == {(1, 1), (1, -1), (-1, 1), (-1, -1)}
    ball = dual_ball(g11, b11)
    assert set(ball.extreme) == classes
    assert ball.g1_area == 4
    assert ball.dim == 2


def test_dual_ball_g22(g22, b22):
    # oracle: brute-force filter of all 2^8 sign vectors, then max filtering
    brute_classes = set()
    from wallnorm import class_of

    for signs in product((1, -1), repeat=8):
        coor = Coorientation(signs)
        if is_eulerian(g22, coor):
            brute_classes.add(class_of(g22, coor, b22))
    extreme_by_hand = {
        p for p in brute_classes
        if hull_position([q for q in brute_classes if q != p], p) == "outside"
    }
    ball = dual_ball(g22, b22)
    assert set(ball.points) == brute_classes
    assert set(ball.extreme) == extreme_by_hand == {(2, 2), (2, -2), (-2, 2), (-2, -2)}
    assert ball.g1_area == 16


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_area_identity_grids(m, n):
    wmap = grid_map(m, n)
    basis = grid_basis(wmap, m, n)
    ball = dual_ball(wmap, basis)
    assert ball.g1_area == 4 * m * n


def test_ball_symmetric_and_convex_structure(g22, b22, genus2, genus2_basis):
    for wmap, basis in ((g22, b22), (genus2, genus2_basis)):
        ball = dual_ball(wmap, basis)
        points = set(ball.points)
        assert {tuple(-x for x in p) for p in points} == points
        assert set(ball.extreme) <= points
        assert ball.dim == basis.rank
        for p in ball.points:
            if p not in ball.extreme:
                assert hull_position(ball.extreme, p) != "outside"


def test_contains_g22(g22, b22):
    ball = dual_ball(g22, b22)
    assert contains(ball, (0, 0)) == "interior"
    assert contains(ball, (2, 0)) == "boundary"
    assert contains(ball, (2, 2)) == "boundary"
    assert contains(ball, (3, 0)) == "outside"


def test_contains_g11_vertex(g11, b11):
    ball = dual_ball(g11, b11)
    assert contains(ball, (1, 1)) == "boundary"
    assert contains(ball, (0, 0)) == "interior"


def test_degenerate_ball_guard():
    ball = DualBall(points=((0, 0), (1, 0)), extreme=((0, 0), (1, 0)), dim=1)
    with pytest.raises(DegenerateBall):
        contains(ball, (0, 0))


def test_homogeneity(g22, b22, genus2, genus2_basis):
    rng = random.Random(8)
    for wmap, basis in ((g22, b22), (genus2, genus2_basis)):
        for _ in range(15):
            a = tuple(rng.randrange(-3, 4) for _ in range(basis.rank))
            base = norm(wmap, basis, a).value
            for n in range(-3, 4):
                scaled = tuple(n * x for x in a)
                assert norm(wmap, basis, scaled).value == abs(n) * base


def test_subadditivity_and_symmetry(g22, b22, genus2, genus2_basis):
    rng = random.Random(9)
    for wmap, basis in ((g22, b22), (genus2, genus2_basis)):
        for _ in range(40):
            a = tuple(rng.randrange(-4, 5) for _ in range(basis.rank))
            b = tuple(rng.randrange(-4, 5) for _ in range(basis.rank))
            na = norm(wmap, basis, a).value
            nb = norm(wmap, basis, b).value
            nab = norm(wmap, basis, tuple(x + y for x, y in zip(a, b))).value
            assert nab <= na + nb
            assert norm(wmap, basis, tuple(-x for x in a)).value == na


def test_positivity(g11, b11, g22, b22, genus2, genus2_basis):
    for wmap, basis in ((g11, b11), (g22, b22), (genus2, genus2_basis)):
        for a in product(range(-2, 3), repeat=basis.rank):
            if any(a):
                assert norm(wmap, basis, a).value >= 1


def test_norm_parity(g11, b11, g22, b22, g23, b23, genus2, genus2_basis):
    for wmap, basis in ((g11, b11), (g22, b22), (g23, b23), (genus2, genus2_basis)):
        parity = gamma_parity(wmap, basis)
        for a in product(range(-2, 3), repeat=basis.rank):
            expected = sum(x * p for x, p in zip(a, parity)) % 2
            assert norm(wmap, basis, a).value % 2 == expected


def test_inclusion_bound(g22, b22, genus2, genus2_basis):
    rng = random.Random(14)
    for wmap, basis in ((g22, b22), (genus2, genus2_basis)):
        classes = enumerate_eulerian(wmap, basis).classes
        for _ in range(20):
            a = tuple(rng.randrange(-3, 4) for _ in range(basis.rank))
            bound = norm(wmap, basis, a).value
            for p in classes:
                assert abs(sum(x * y for x, y in zip(p, a))) <= bound


def test_lattice_realization(g11, b11, g22, b22, g23, b23, genus2, genus2_basis):
    for wmap, basis in ((g11, b11), (g22, b22), (g23, b23), (genus2, genus2_basis)):
        ball = dual_ball(wmap, basis)
        parity = gamma_parity(wmap, basis)
        classes = set(enumerate_eulerian(wmap, basis).classes)
        ranges = [range(lo, hi + 1) for lo, hi in ball.bounding_box()]
        for point in product(*ranges):
            if any((x - p) % 2 for x, p in zip(point, parity)):
                continue
            if contains(ball, point) != "outside":
                assert point in classes


def test_distinct_class_count_vs_enumeration(g22, b22):
    eul = enumerate_eulerian(g22, b22)
    assert eul.count == 18
    assert sum(eul.classes.values()) == eul.count
    assert len(eul.classes) == 9


def _pairing(p, d):
    return sum(x * y for x, y in zip(p, d))


@cache
def _support_cases():
    """The differential maps and the one-curve example, with their enumerated classes."""
    cases = _differential_maps() + [(one_curve_example(), homology_basis(one_curve_example()))]
    return [(w, b, enumerate_eulerian(w, b).distinct_classes()) for w, b in cases]


@settings(derandomize=True, deadline=None, max_examples=200)
@given(st.data())
def test_support_coorientation_attains_the_enumeration_max(data):
    wmap, basis, points = data.draw(st.sampled_from(_support_cases()))
    d = data.draw(st.lists(st.integers(-9, 9), min_size=basis.rank, max_size=basis.rank))
    coor, cls = support_coorientation(wmap, basis, d)
    assert is_eulerian(wmap, coor)
    assert class_of(wmap, coor, basis) == cls
    assert _pairing(cls, d) == max(_pairing(p, d) for p in points)


def _enumerated_genus_one_ball(wmap, basis):
    """points, extreme, dim, polygon, area from the enumeration and the potentials."""
    points = enumerate_eulerian(wmap, basis).distinct_classes()
    extreme = tuple(p for p in points if highest_potential(wmap, basis, p).normal_rank == 2)
    dim = affine_dimension(points)
    if dim < 2:
        return points, extreme, dim, None, None
    polygon = tuple(sorted(extreme, key=lambda p: math.atan2(p[1], p[0]) % (2 * math.pi)))
    twice = sum(
        p[0] * q[1] - q[0] * p[1] for p, q in zip(polygon, polygon[1:] + polygon[:1])
    )
    return points, extreme, dim, polygon, Fraction(abs(twice), 2)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(seed=st.integers(0, 2**32 - 1))
def test_genus_one_ball_equals_the_enumerated_ball(seed):
    rng = random.Random(seed)
    wmap = random_wall_system(rng.randint(2, 6), rng)
    while wmap.genus != 1:
        wmap = random_wall_system(rng.randint(2, 6), rng)
    basis = homology_basis(wmap)
    ball = dual_ball(wmap, basis)
    assert (ball.points, ball.extreme, ball.dim, ball.polygon, ball.g1_area) == (
        _enumerated_genus_one_ball(wmap, basis)
    )


def test_genus_one_ball_never_enumerates(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the genus-one ball enumerated")

    monkeypatch.setattr(coorient, "_search_eulerian", refuse)
    for module in (coorient, cli):  # normball does not import it
        monkeypatch.setattr(module, "enumerate_eulerian", refuse)
    for module in (coorient, eikonal):
        monkeypatch.setattr(module, "iter_eulerian", refuse)
    grids = [grid_map(m, n) for m, n in ((1, 1), (2, 3), (5, 5))]
    for wmap in grids + [four_geodesic_example(), one_curve_example()]:
        basis = homology_basis(wmap)
        ball = dual_ball(wmap, basis)
        assert norm(wmap, basis, (1, 2)).value == max(_pairing(p, (1, 2)) for p in ball.extreme)
    (tmp_path / "G34.wall").write_text(grid_text(3, 4))
    (tmp_path / "G34.basis").write_text(grid_basis_text(3, 4))
    args = [str(tmp_path / "G34.wall"), "--basis", str(tmp_path / "G34.basis")]
    for command in (["norm", *args, "1", "2"], ["ball", *args], ["ball", *args, "--all-classes"],
                    ["ball", *args, "--area"], ["birkhoff", *args], ["svg", *args]):
        assert cli.main(command, out=io.StringIO()) == 0, command


def _genus_one_position_cases():
    """G(m, n) with grid and automatic bases, two geodesic arrangements, 40 random maps."""
    cases = []
    for m, n in product(range(1, 6), repeat=2):
        wmap = grid_map(m, n)
        cases += [(wmap, grid_basis(wmap, m, n)), (wmap, homology_basis(wmap))]
    arrangement = torus_geodesic_arrangement(
        [((1, 0), (0, Fraction(1, 3))), ((0, 1), (Fraction(1, 5), 0)),
         ((1, 2), (Fraction(1, 7), Fraction(1, 11))), ((2, -1), (Fraction(2, 9), Fraction(1, 13)))]
    )
    cases += [(wmap, homology_basis(wmap)) for wmap in (four_geodesic_example(), arrangement)]
    rng = random.Random(24)
    while len(cases) < 50 + 2 + 40:
        wmap = random_wall_system(rng.randint(2, 9), rng)
        if wmap.genus == 1:
            cases.append((wmap, homology_basis(wmap)))
    return cases


def test_genus_one_positions_equal_the_potential():
    # the polygon's sides against the highest potential, on the box plus one ring
    for wmap, basis in _genus_one_position_cases():
        ball = dual_ball(wmap, basis)
        (x0, x1), (y0, y1) = ball.bounding_box()
        ring = list(product(range(x0 - 1, x1 + 2), range(y0 - 1, y1 + 2)))
        want = {p: highest_potential(wmap, basis, p).position for p in ring}
        assert {p: contains(ball, p) for p in ring} == want, wmap.digest
        parity = gamma_parity(wmap, basis)
        assert ball.points == tuple(
            p for p in ring
            if want[p] != "outside" and all((x - q) % 2 == 0 for x, q in zip(p, parity))
        ), wmap.digest
        report = birkhoff.classify(wmap, basis)
        assert report.entries and all(e.status == want[e.point] for e in report.entries)


def test_genus_one_positions_run_no_potential(tmp_path, monkeypatch):
    g2 = genus2_example()
    g2_basis = homology_basis(g2)
    g2_ball = dual_ball(g2, g2_basis)
    (tmp_path / "G34.wall").write_text(grid_text(3, 4))
    (tmp_path / "G34.basis").write_text(grid_basis_text(3, 4))
    (tmp_path / "genus2.wall").write_text(g2.canonical_text)

    def refuse(*args, **kwargs):
        raise AssertionError("a potential ran")

    monkeypatch.setattr(eikonal, "_potential", refuse)
    for wmap in (grid_map(3, 4), four_geodesic_example()):
        basis = homology_basis(wmap)
        ball = dual_ball(wmap, basis)
        assert [contains(ball, p) for p in ((0, 0), ball.extreme[0], (99, 0))] == [
            "interior", "boundary", "outside"]
        assert birkhoff.classify(wmap, basis).entries
    args = [str(tmp_path / "G34.wall"), "--basis", str(tmp_path / "G34.basis")]
    for command in (["birkhoff", *args], ["svg", *args]):
        assert cli.main(command, out=io.StringIO()) == 0, command
    # above genus one the potential is still the only position method
    for query in (lambda: contains(g2_ball, (0, 0, 0, 0)),
                  lambda: birkhoff.classify(g2, g2_basis),
                  lambda: cli.main(["birkhoff", str(tmp_path / "genus2.wall")], out=io.StringIO())):
        with pytest.raises(AssertionError, match="a potential ran"):
            query()


def _symmetry_cases():
    """G(m, n) with grid and automatic bases, the named examples, 42 seeded maps of genus 1-4."""
    cases = []
    for m, n in product(range(1, 6), repeat=2):
        wmap = grid_map(m, n)
        cases += [(wmap, grid_basis(wmap, m, n)), (wmap, homology_basis(wmap))]
    for wmap in (four_geodesic_example(), genus2_example(), one_curve_example()):
        cases.append((wmap, homology_basis(wmap)))
    rng = random.Random(25)
    wanted = {1: 12, 2: 12, 3: 12, 4: 6}
    while any(wanted.values()):
        wmap = random_wall_system(rng.randint(2, 8), rng)
        if wanted.get(wmap.genus):
            wanted[wmap.genus] -= 1
            cases.append((wmap, homology_basis(wmap)))
    return cases


def test_symmetric_ball_equals_the_unhalved_reference():
    # reference: two support queries per coordinate, the four-seed walk testing
    # every side, the vertex test on every point, one potential per classified point
    for wmap, basis in _symmetry_cases():
        ball = dual_ball(wmap, basis)
        assert ball == reference.build_ball(wmap, basis), wmap.digest
        for kept in (ball.points, ball.extreme):
            assert set(kept) == {tuple(-x for x in p) for p in kept}, wmap.digest
        box = reference.bounding_box(wmap, basis)
        assert normball.bounding_box(wmap, basis) == box == ball.bounding_box(), wmap.digest
        assert birkhoff.classify(wmap, basis) == reference.classify(wmap, basis), wmap.digest
        if basis.rank > 2:
            # a hand-built ball with an asymmetric box: each point gets its potential's answer
            lowest = box[0][0]
            lopsided = DualBall(ball.points, tuple(p for p in ball.extreme if p[0] > lowest),
                                ball.dim)
            assert lopsided.bounding_box()[0][0] > lowest
            assert birkhoff.classify(wmap, basis, lopsided) == reference.classify(
                wmap, basis, lopsided), wmap.digest


def test_box_scan_carries_the_pairings():
    # the points in product order, each with its pairing against every weight
    rng = random.Random(28)
    for _ in range(40):
        rank = rng.randint(1, 5)
        ranges = [range(lo, lo + 2 * rng.randint(0, 3) + 1, 2)
                  for lo in (rng.randint(-4, 4) for _ in range(rank))]
        weights = [tuple(rng.randint(-3, 3) for _ in range(rank)) for _ in range(rng.randint(0, 6))]
        scanned = list(normball._box_scan(ranges, weights))
        assert [point for point, _ in scanned] == list(product(*ranges))
        for point, pairings in scanned:
            assert pairings == [_pairing(point, w) for w in weights], (ranges, weights, point)
    assert list(normball._box_scan([range(0, 3, 2), range(1, 1, 2)], [(1, 1)])) == []


def _genus_three_map():
    rng = random.Random(5)
    return next(m for m in iter(lambda: random_wall_system(6, rng), None) if m.genus == 3)


def test_symmetry_halves_the_oracle_calls(monkeypatch):
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(normball, "support_coorientation",
                        counted("support", normball.support_coorientation))
    monkeypatch.setattr(eikonal, "_potential", counted("potential", eikonal._potential))

    def count(query, wmap, basis):
        calls.clear()
        query(wmap, basis)
        return dict(calls)

    g34, genus3 = grid_map(3, 4), _genus_three_map()
    # genus one: seeds e1, e2 and the sides of half the polygon (9 queries unhalved)
    assert count(dual_ball, g34, grid_basis(g34, 3, 4)) == {"support": 5}
    assert count(birkhoff.classify, g34, grid_basis(g34, 3, 4)) == {"support": 5}
    assert count(normball.bounding_box, g34, grid_basis(g34, 3, 4)) == {"support": 2}
    # genus three: one vertex test and one position per pair {p, -p}, one query per
    # coordinate (38 potentials, 12 queries and 324 potentials unhalved)
    assert count(dual_ball, genus3, homology_basis(genus3)) == {"potential": 19}
    assert count(birkhoff.classify, genus3, homology_basis(genus3)) == {
        "support": 6, "potential": 162}
    assert count(normball.bounding_box, genus3, homology_basis(genus3)) == {"support": 6}


def test_exposed_test_by_row_blocks_keeps_the_extreme_points(monkeypatch):
    rng = random.Random(27)
    maps = [genus2_example(), _genus_three_map()]
    while len(maps) < 2 + 10:
        wmap = random_wall_system(rng.randint(3, 8), rng)
        if 2 <= wmap.genus <= 4:
            maps.append(wmap)
    assert {m.genus for m in maps} == {2, 3, 4}
    real = normball._exposed
    for wmap in maps:
        flags = {}
        extreme = {}
        for rows in (None, 1, 7):  # None: the whole Gram matrix as one block

            def exposed(array, _, rows=rows):
                flags[rows] = real(array, rows or len(array))
                return flags[rows]

            monkeypatch.setattr(normball, "_exposed", exposed)
            extreme[rows] = dual_ball(wmap, homology_basis(wmap)).extreme
        assert flags[1] == flags[7] == flags[None] and any(flags[None]), wmap.digest
        assert extreme[1] == extreme[7] == extreme[None], wmap.digest


def test_warm_and_cold_norm_agree_where_extreme_points_tie(monkeypatch):
    # 0, +-e_k and e_j + e_k are normal to faces of the ball, where extreme points tie
    for wmap, cold, _ in _circulation_cases():
        rank = cold.rank
        unit = [tuple(int(i == k) for i in range(rank)) for k in range(rank)]
        directions = [(0,) * rank, *unit, *(tuple(-x for x in e) for e in unit)]
        directions += [tuple(x + y for x, y in zip(unit[j], unit[k]))
                       for j, k in combinations(range(rank), 2)]
        warm = homology_basis(wmap)
        dual_ball(wmap, warm)
        for a in directions:
            assert norm(wmap, warm, a) == norm(wmap, cold, a), (wmap.digest, a)
        assert "ball" not in cold._memo
    # a basis built on an equal map parsed anew answers from its ball; another map's is refused
    twins = []
    for make in (lambda: grid_map(2, 3), genus2_example):
        wmap, twin = make(), make()
        assert wmap == twin and wmap is not twin
        basis = homology_basis(twin)
        dual_ball(twin, basis)
        a = tuple(range(1, basis.rank + 1))
        twins.append((wmap, basis, a, norm(wmap, homology_basis(wmap), a)))

    def refuse(*args, **kwargs):
        raise AssertionError("the kept ball was not used")

    monkeypatch.setattr(normball, "_support_vertex", refuse)
    for wmap, basis, a, want in twins:
        assert norm(wmap, basis, a) == want
        with pytest.raises(InternalError, match="different map"):
            norm(grid_map(1, 4), basis, a)


def _norm_outcome(wmap, basis, a):
    """norm's value and witness, or its exception's class and text (a's repr masked)."""
    try:
        result = norm(wmap, basis, a)
    except Exception as exc:  # the class and text are the outcome
        return type(exc), str(exc).replace(repr(a), "<a>")
    assert type(result.value) is int and all(type(x) is int for x in result.witness)
    return result


def test_warm_and_cold_norm_agree_on_every_input(g22, genus2):
    import numpy as np

    other = grid_map(2, 3)
    for wmap, rank in ((g22, 2), (genus2, 4)):
        good = [3, -1, 2, 0][:rank]
        inputs = [
            lambda: (2.0,) + tuple(good[1:]),
            lambda: [Fraction(1)] + good[1:],
            lambda: "12",
            lambda: (1,),
            lambda: (1, 2, 3),
            lambda: tuple(good),
            lambda: list(good),
            lambda: (x for x in good),
            lambda: (x for x in [1.5] + good[1:]),
            lambda: (x for x in good + [1]),
            lambda: tuple(np.int64(x) for x in good),
            lambda: np.array(good, dtype=np.int64),
            lambda: np.array(good, dtype=np.float64),
            lambda: 7,
        ]
        warm = homology_basis(wmap)
        dual_ball(wmap, warm)
        for make in inputs:
            cold = homology_basis(wmap)
            assert _norm_outcome(wmap, warm, make()) == _norm_outcome(wmap, cold, make())
            assert "ball" not in cold._memo
            # a basis of another map: a bad class is refused first, a good one by the map check
            assert _norm_outcome(other, warm, make()) == _norm_outcome(other, cold, make())
        assert _norm_outcome(other, warm, tuple(good)) == (
            InternalError, "the basis belongs to a different map")


def test_genus_one_ball_rechecks_each_vertex(monkeypatch):
    real = normball.support_coorientation

    def wrong_class(wmap, basis, d):
        coor, cls = real(wmap, basis, d)
        return coor, (cls[0] + 2, cls[1])

    monkeypatch.setattr(normball, "support_coorientation", wrong_class)
    g22 = grid_map(2, 2)
    with pytest.raises(InternalError, match="does not carry its class"):
        dual_ball(g22, homology_basis(g22))


def test_support_point_rechecks_the_eulerian_condition(monkeypatch):
    real = normball.support_coorientation

    def not_eulerian(wmap, basis, d):
        # one sign flipped on an edge no basis cycle crosses: same class, not Eulerian
        coor, cls = real(wmap, basis, d)
        e = min(set(range(len(coor))) - {e for cycle in basis.cycles for e, _ in cycle})
        signs = list(coor.signs)
        signs[e] = -signs[e]
        return Coorientation(tuple(signs)), cls

    monkeypatch.setattr(normball, "support_coorientation", not_eulerian)
    g22 = grid_map(2, 2)
    with pytest.raises(InternalError, match="does not carry its class"):
        dual_ball(g22, homology_basis(g22))


@cache
def _circulation_cases():
    """Fixtures and seeded maps of rank 4, 6 and 8, with their enumerated class points.

    Their bases keep no ball, so norm, norm_rational and bounding_box run
    the circulation on them.
    """
    maps = [grid_map(1, 1), grid_map(2, 3), grid_map(3, 3), four_geodesic_example(),
            one_curve_example(), genus2_example()]
    rng = random.Random(71)
    wanted = {4: 3, 6: 3, 8: 2}
    while any(wanted.values()):
        wmap = random_wall_system(rng.randint(4, 8), rng)
        rank = 2 * wmap.genus
        if wanted.get(rank):
            wanted[rank] -= 1
            maps.append(wmap)
    cases = []
    for wmap in maps:
        basis = homology_basis(wmap)
        cases.append((wmap, basis, enumerate_eulerian(wmap, basis).distinct_classes()))
    return cases


@settings(derandomize=True, deadline=None, max_examples=200)
@given(st.data())
def test_circulation_answers_equal_the_enumerated_ball(data):
    wmap, basis, points = data.draw(st.sampled_from(_circulation_cases()))
    a = data.draw(st.lists(st.integers(-9, 9), min_size=basis.rank, max_size=basis.rank))
    values = [_pairing(p, a) for p in points]
    best = max(values)  # the first maximizer is the smallest one
    assert norm(wmap, basis, a) == NormValue(best, points[values.index(best)])
    scales = data.draw(st.lists(st.integers(1, 12), min_size=basis.rank, max_size=basis.rank))
    q = [Fraction(x, s) for x, s in zip(a, scales)]
    assert norm_rational(wmap, basis, q) == max(_pairing(p, q) for p in points)
    assert normball.bounding_box(wmap, basis) == tuple(
        (min(p[k] for p in points), max(p[k] for p in points)) for k in range(basis.rank)
    )
    assert "ball" not in basis._memo


def test_norm_and_birkhoff_above_genus_one_never_enumerate(tmp_path, monkeypatch):
    # genus 2 and 3.  Only listing and the lookup realization enumerate: every
    # other request answers as before with the search refused.  The genus-2
    # reports are the golden files; the genus-3 answers come from the
    # enumeration, run before the search is refused.
    genus3 = _genus_three_map()
    expected = {}  # wall file -> {argv tail: report lines below the header}
    for name, wmap in (("genus2", genus2_example()), ("genus3", genus3)):
        wall = tmp_path / f"{name}.wall"
        wall.write_text(wmap.canonical_text)
        basis = homology_basis(wmap)
        eul = enumerate_eulerian(wmap, basis)
        points = eul.distinct_classes()
        rank = basis.rank
        a = tuple(range(1 - rank // 2, 1 + rank // 2 + rank % 2))
        values = [_pairing(p, a) for p in points]
        witness = points[values.index(max(values))]
        extreme = [p for p in points if highest_potential(wmap, basis, p).normal_rank == rank]
        report = birkhoff.classify(wmap, basis, DualBall(points, tuple(extreme), rank))
        classes = [f"class {' '.join(map(str, p))} count={eul.classes[p]}" for p in points]
        expected[str(wall)] = {
            ("norm", *map(str, a)): [f"x = {max(values)}",
                                     "witness " + " ".join(map(str, witness))],
            ("birkhoff",): [f"point={','.join(map(str, e.point))} status={e.status}"
                            for e in report.entries],
            ("coorientations",): [f"eulerian {eul.count}"],
            ("coorientations", "--classes"): [f"eulerian {eul.count}", *classes],
            ("classes",): [f"eulerian {eul.count}", *classes],
            ("ball",): [*(f"extreme {' '.join(map(str, p))}" for p in extreme),
                        f"count {len(extreme)}"],
            ("ball", "--all-classes"): [*(f"point {' '.join(map(str, p))}" for p in points),
                                        f"count {len(points)}"],
        }

    def refuse(*args, **kwargs):
        raise AssertionError("the Eulerian coorientations were enumerated")

    monkeypatch.setattr(coorient, "_search_eulerian", refuse)
    for wall, reports in expected.items():
        for command, lines in reports.items():
            out = io.StringIO()
            assert cli.main([command[0], wall, *command[1:]], out=out) == 0, command
            got = out.getvalue().splitlines()[2:]
            if command[0] == "birkhoff":
                got = [line.split(" chi=")[0] for line in got if line.startswith("point=")]
            assert got == lines, (wall, command)

    golden = Path(__file__).parent / "golden"
    wall = str(tmp_path / "genus2.wall")
    for command, case in ((["coorientations", "--classes"], "genus2_coorientations"),
                          (["classes"], "genus2_coorientations"), (["ball"], "genus2_ball"),
                          (["ball", "--all-classes"], "genus2_ball_all"),
                          (["verify", "--box", "1"], "genus2_verify")):
        out = io.StringIO()
        assert cli.main([command[0], wall, *command[1:]], out=out) == 0, command
        assert out.getvalue() == (golden / f"{case}.out").read_text(), command
    for command in (["coorientations", wall, "--list", str(tmp_path / "coors")],
                    ["realize", wall, "-1", "1", "-1", "-1", "--method", "lookup"]):
        with pytest.raises(AssertionError, match="enumerated"):
            cli.main(command, out=io.StringIO())


def test_non_integral_class_coordinates_are_refused(g22, b22):
    # int() truncated these: (1.9, 0.9) was answered as (1, 0), (0.5, 0.5) as (0, 0)
    from wallnorm import min_multicurve, min_single_cycle, realize

    ball = dual_ball(g22, b22)
    queries = [
        lambda a: norm(g22, b22, a),
        lambda a: contains(ball, a),
        lambda a: highest_potential(g22, b22, a),
        lambda a: realize(g22, b22, a),
        lambda a: min_single_cycle(g22, b22, a, 3),
        lambda a: min_multicurve(g22, b22, a),
    ]
    for query in queries:
        for a in [(1.9, 0.9), (0.5, 0.5), (Fraction(1), 0), (2.0, 0)]:
            with pytest.raises(ValueError, match="class coordinates must be integers"):
                query(a)
    assert norm_rational(g22, b22, (Fraction(19, 10), Fraction(9, 10))) == Fraction(28, 5)
    # integers of any integer type still answer, and a count mismatch keeps its message
    assert norm(g22, b22, [True, 0]) == norm(g22, b22, (1, 0))
    with pytest.raises(ValueError, match="^target class must have 2 coordinates$"):
        realize(g22, b22, (0, 0, 0))
