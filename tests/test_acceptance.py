"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
All comparisons are exact; the timed criteria measure fresh computations
(each builds its own maps; only the dual ball is kept, on its basis).
"""

import io
import random
import time
from contextlib import contextmanager
from itertools import product

from wallnorm import (
    Coorientation,
    class_of,
    class_of_walk,
    classify,
    concat_closed_walks,
    contains,
    dual_ball,
    enumerate_eulerian,
    evaluate,
    gamma_parity,
    homology_basis,
    is_eulerian,
    norm,
    realize,
    reverse_walk,
    verify_min_equals_max,
)
from wallnorm.cli import main
from wallnorm.fixtures import (
    genus2_example,
    grid_basis,
    grid_basis_text,
    grid_map,
    grid_text,
    one_curve_example,
    random_wall_system,
)

from conftest import potential_field, random_closed_walk
from reference import extend_highest, seed_values


@contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"criterion {num} ({name}): FAIL")
        raise
    print(f"criterion {num} ({name}): PASS")


def test_criterion_1_torus_grid_norm():
    with criterion(1, "torus grid norm"):
        start = time.monotonic()
        g22 = grid_map(2, 2)
        b22 = grid_basis(g22, 2, 2)
        assert norm(g22, b22, (4, 1)).value == 10
        for p in range(-4, 5):
            for q in range(-4, 5):
                assert norm(g22, b22, (p, q)).value == 2 * abs(p) + 2 * abs(q), (p, q)
        elapsed = time.monotonic() - start
        assert elapsed < 5.0, f"took {elapsed:.2f}s, budget 5s"


def test_criterion_2_min_equals_max():
    with criterion(2, "min = max duality"):
        start = time.monotonic()
        for m, n, radius in ((1, 1, 3), (2, 2, 3), (2, 3, 2)):
            wmap = grid_map(m, n)
            basis = grid_basis(wmap, m, n)
            report = verify_min_equals_max(wmap, basis, radius)
            assert report.ok, f"G({m},{n}): {report.discrepancies}"
        rng = random.Random(20260810)
        for k in range(20):
            wmap = random_wall_system(2 + k % 3, rng)
            basis = homology_basis(wmap)
            report = verify_min_equals_max(wmap, basis, 2)
            assert report.ok, f"random map {k} ({wmap.digest}): {report.discrepancies}"
        elapsed = time.monotonic() - start
        assert elapsed < 60.0, f"took {elapsed:.2f}s, budget 60s"


def test_criterion_3_torus_area_identity():
    with criterion(3, "torus area identity"):
        for m in (1, 2, 3):
            for n in (1, 2, 3):
                wmap = grid_map(m, n)
                basis = grid_basis(wmap, m, n)
                ball = dual_ball(wmap, basis)
                assert ball.g1_area == 4 * m * n, (m, n, ball.g1_area)


def test_criterion_4_lattice_realization():
    with criterion(4, "lattice realization of congruent points"):
        for m, n in ((1, 1), (2, 2), (2, 3)):
            wmap = grid_map(m, n)
            basis = grid_basis(wmap, m, n)
            ball = dual_ball(wmap, basis)
            parity = gamma_parity(wmap, basis)
            classes = set(enumerate_eulerian(wmap, basis).classes)
            ranges = [range(lo, hi + 1) for lo, hi in ball.bounding_box()]
            congruent = [
                point
                for point in product(*ranges)
                if not any((x - p) % 2 for x, p in zip(point, parity))
                and contains(ball, point) != "outside"
            ]
            assert congruent, f"G({m},{n}) has no congruent lattice points"
            for point in congruent:
                assert point in classes, (m, n, point)
                result = realize(wmap, basis, point)
                assert is_eulerian(wmap, result.coorientation)
                assert class_of(wmap, result.coorientation, basis) == point
                assert result.method == "eikonal"


def test_criterion_5_birkhoff_classification():
    with criterion(5, "Birkhoff classification"):
        start = time.monotonic()
        g11 = grid_map(1, 1)
        report11 = classify(g11, grid_basis(g11, 1, 1))
        assert report11.interior_count == 0
        assert not report11.section_exists
        g22 = grid_map(2, 2)
        report22 = classify(g22, grid_basis(g22, 2, 2))
        assert report22.interior_count == 1
        assert report22.boundary_count == 8
        interior = [e for e in report22.entries if e.status == "interior"]
        assert [e.point for e in interior] == [(0, 0)]
        for entry in report22.entries:
            assert entry.euler_characteristic == -8
            assert entry.boundary_circles == 8
            assert entry.section_genus == 1
        elapsed = time.monotonic() - start
        assert elapsed < 5.0, f"took {elapsed:.2f}s, budget 5s"


def _homologous_pair(wmap, basis, rng):
    """Two closed dual walks with equal coordinates, built independently."""
    dual = wmap.dual_graph
    w1 = random_closed_walk(wmap, rng)
    if rng.randrange(2) and w1:
        # cyclic rotation plus a back-and-forth crossing
        k = rng.randrange(len(w1))
        w2 = w1[k:] + w1[:k]
        face = dual.crossing_ends(*w2[0])[0]
        edge, direction, _ = dual.moves[face][rng.randrange(dual.degree(face))]
        w2 = ((edge, direction), (edge, -direction)) + w2
    else:
        # independent walk corrected to the same class by basis cycles
        raw = random_closed_walk(wmap, rng)
        c1 = class_of_walk(w1, basis)
        c2 = class_of_walk(raw, basis)
        parts = [raw]
        for i, (a, b) in enumerate(zip(c1, c2)):
            delta = a - b
            piece = basis.cycles[i] if delta > 0 else reverse_walk(basis.cycles[i])
            parts.extend([piece] * abs(delta))
        w2 = concat_closed_walks(dual, *parts)
    assert class_of_walk(w1, basis) == class_of_walk(w2, basis)
    return w1, w2


def test_criterion_6_property_suites():
    with criterion(6, "property suites"):
        rng = random.Random(424242)
        fixtures_list = [
            (grid_map(1, 1), 1, 1),
            (grid_map(2, 2), 2, 2),
            (grid_map(2, 3), 2, 3),
            (genus2_example(), None, None),
        ]
        for wmap, m, n in fixtures_list:
            basis = grid_basis(wmap, m, n) if m else homology_basis(wmap)
            rank = basis.rank
            eul = enumerate_eulerian(wmap, basis)
            parity = gamma_parity(wmap, basis)

            # norm properties over the +-3 box (homogeneity, symmetry,
            # positivity, parity) and subadditivity on random pairs
            box = list(product(range(-3, 4), repeat=rank)) if rank == 2 else [
                tuple(rng.randrange(-3, 4) for _ in range(rank)) for _ in range(60)
            ]
            values = {a: norm(wmap, basis, a).value for a in box}
            for a, va in values.items():
                assert va == norm(wmap, basis, tuple(-x for x in a)).value
                if any(a):
                    assert va >= 1
                else:
                    assert va == 0
                assert va % 2 == sum(x * p for x, p in zip(a, parity)) % 2
                for k in range(-3, 4):
                    assert norm(wmap, basis, tuple(k * x for x in a)).value == abs(k) * va
            for _ in range(50):
                a = tuple(rng.randrange(-3, 4) for _ in range(rank))
                b = tuple(rng.randrange(-3, 4) for _ in range(rank))
                ab = tuple(x + y for x, y in zip(a, b))
                assert (
                    norm(wmap, basis, ab).value
                    <= norm(wmap, basis, a).value + norm(wmap, basis, b).value
                )

            # inclusion and evaluation parity for every enumerated coorientation
            for coor in eul.items:
                cls = class_of(wmap, coor, basis)
                for i in range(rank):
                    assert cls[i] % 2 == parity[i]
                for _ in range(3):
                    a = tuple(rng.randrange(-3, 4) for _ in range(rank))
                    pairing = sum(x * y for x, y in zip(cls, a))
                    assert abs(pairing) <= norm(wmap, basis, a).value

            # homology invariance of evaluate on 100 homologous pairs
            sample = eul.items[:: max(1, len(eul.items) // 8)]
            for _ in range(100):
                w1, w2 = _homologous_pair(wmap, basis, rng)
                for coor in sample:
                    assert evaluate(wmap, coor, w1) == evaluate(wmap, coor, w2)


def test_criterion_7_enumeration_correctness():
    with criterion(7, "enumeration equals brute force"):
        fixture_maps = [
            grid_map(1, 1),
            grid_map(1, 2),
            grid_map(2, 2),
            grid_map(2, 3),
            grid_map(2, 4),
            genus2_example(),
            one_curve_example(),
        ]
        rng = random.Random(555)
        fixture_maps += [random_wall_system(2 + k % 3, rng) for k in range(6)]
        for wmap in fixture_maps:
            if wmap.edge_count > 16:
                continue
            brute = {
                signs
                for signs in product((1, -1), repeat=wmap.edge_count)
                if is_eulerian(wmap, Coorientation(signs))
            }
            enumerated = {c.signs for c in enumerate_eulerian(wmap).items}
            assert enumerated == brute, wmap.digest


def test_criterion_8_eikonal_field_checks():
    with criterion(8, "eikonal field checks"):
        g11 = grid_map(1, 1)
        b11 = grid_basis(g11, 1, 1)
        radius = 4
        field = extend_highest(
            g11, b11, seed_values(b11, (1, 1), radius), radius, target=(1, 1)
        )
        assert field.eikonal_violations(radius) == []
        assert field.equivariance_violations(radius) == []
        # the exact potential realize reads its signs from: same checks,
        # and the same values as the truncated field
        exact = potential_field(g11, b11, (1, 1), radius)
        assert exact.eikonal_violations(radius) == []
        assert exact.equivariance_violations(radius) == []
        assert exact.values.items() <= field.values.items()


def test_criterion_9_large_torus_grids(tmp_path):
    with criterion(9, "genus-one norm, ball and birkhoff on large grids"):
        g66 = grid_map(6, 6)
        assert norm(g66, grid_basis(g66, 6, 6), (1, 2)).value == 18
        # G(8,8) has far more Eulerian coorientations than the enumeration cap
        (tmp_path / "G88.wall").write_text(grid_text(8, 8))
        (tmp_path / "G88.basis").write_text(grid_basis_text(8, 8))
        args = [str(tmp_path / "G88.wall"), "--basis", str(tmp_path / "G88.basis")]
        start = time.monotonic()
        reports = {}
        for command in (["norm", *args, "1", "2"], ["ball", *args], ["birkhoff", *args]):
            out = io.StringIO()
            assert main(command, out=out) == 0, command
            reports[command[0]] = out.getvalue()
        elapsed = time.monotonic() - start
        assert "x = 24\n" in reports["norm"]
        assert "count 4\nfacets 4\n" in reports["ball"]
        assert "interior: 49\n" in reports["birkhoff"]
        assert elapsed < 10.0, f"took {elapsed:.2f}s, budget 10s"
