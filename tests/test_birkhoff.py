import random

import pytest

from wallnorm import (
    class_of,
    classify,
    concat_closed_walks,
    dual_ball,
    enumerate_eulerian,
    highest_potential,
    homology_basis,
    is_eulerian,
    realize,
    section_invariants,
    set_user_basis,
)
from wallnorm.errors import InternalError
from wallnorm.fixtures import four_geodesic_example, grid_map, random_wall_system


def test_g11_no_sections(g11, b11):
    report = classify(g11, b11)
    assert len(report.entries) == 4
    assert report.interior_count == 0
    assert report.boundary_count == 4
    assert report.outside_count == 0
    assert not report.section_exists
    assert {e.point for e in report.entries} == {(1, 1), (1, -1), (-1, 1), (-1, -1)}


def test_g22_classification(g22, b22):
    report = classify(g22, b22)
    assert len(report.entries) == 9
    assert report.interior_count == 1
    assert report.boundary_count == 8
    assert report.outside_count == 0
    interior = [e for e in report.entries if e.status == "interior"]
    assert [e.point for e in interior] == [(0, 0)]
    for entry in report.entries:
        assert entry.euler_characteristic == -8
        assert entry.boundary_circles == 8
        assert entry.section_genus == 1
    assert report.section_exists


def test_status_partition(g22, b22, genus2, genus2_basis):
    for wmap, basis in ((g22, b22), (genus2, genus2_basis)):
        report = classify(wmap, basis)
        total = report.interior_count + report.boundary_count + report.outside_count
        assert total == len(report.entries)


def test_positions_equal_the_single_point_potential(g22, b22, genus2, genus2_basis):
    # classify takes every point's arc costs from one product over the box;
    # highest_potential computes one point's costs on its own
    cases = [(g22, b22), (genus2, genus2_basis), (four_geodesic_example(), None)]
    rng = random.Random(12)
    while len(cases) < 12:
        wmap = random_wall_system(rng.randint(3, 9), rng)
        if wmap.genus <= 4:
            cases.append((wmap, None))
    for wmap, basis in cases:
        basis = basis or homology_basis(wmap)
        report = classify(wmap, basis)
        assert [e.status for e in report.entries] == [
            highest_potential(wmap, basis, e.point).position for e in report.entries
        ]


def test_section_invariants_values(g11, g22, one_curve):
    assert section_invariants(g22) == (-8, 8, 1)
    assert section_invariants(g11) == (-2, 4, 0)
    # one immersed circle with two double points on the torus
    assert section_invariants(one_curve) == (-4, 2, 2)


def test_section_invariants_formulas(genus2, one_curve, random_maps):
    for wmap in [genus2, one_curve] + random_maps:
        chi, circles, genus = section_invariants(wmap)
        assert chi == -2 * wmap.vertex_count
        assert circles == 2 * len(wmap.curves)
        assert 2 - 2 * genus - circles == chi
        assert genus >= 0


def test_section_genus_nonnegative_for_realized_points(g11, b11, g22, b22):
    for wmap, basis in ((g11, b11), (g22, b22)):
        report = classify(wmap, basis)
        for entry in report.entries:
            if entry.status != "outside":
                assert entry.section_genus >= 0


def test_interior_points_are_realizable(g22, b22, genus2, genus2_basis):
    for wmap, basis in ((g22, b22), (genus2, genus2_basis)):
        report = classify(wmap, basis)
        classes = set(enumerate_eulerian(wmap, basis).classes)
        for entry in report.entries:
            if entry.status == "interior":
                assert entry.point in classes
                result = realize(wmap, basis, entry.point)
                assert is_eulerian(wmap, result.coorientation)
                assert class_of(wmap, result.coorientation, basis) == entry.point


def test_classification_invariant_under_basis_change(g22):
    auto = homology_basis(g22)
    w1, w2 = auto.cycles
    combined = concat_closed_walks(g22.dual_graph, w1, w2)
    user = set_user_basis(g22, (combined, w2))
    report_auto = classify(g22, auto)
    report_user = classify(g22, user)

    # coordinates transform by the transpose of the pairing matrix
    from wallnorm import class_of_walk

    m = [list(class_of_walk(w, auto)) for w in (combined, w2)]  # rows: new cycles

    def transform(p):
        return tuple(sum(m[j][i] * p[i] for i in range(2)) for j in range(2))

    statuses_auto = {transform(e.point): e.status for e in report_auto.entries}
    statuses_user = {e.point: e.status for e in report_user.entries}
    # every congruent point of the auto report maps onto a user-report point
    # with the same status (the boxes may differ outside the ball)
    for point, status in statuses_auto.items():
        if status != "outside":
            assert statuses_user[point] == status
    assert report_auto.interior_count == report_user.interior_count
    assert report_auto.boundary_count == report_user.boundary_count


def test_classify_refuses_the_ball_of_another_basis():
    # with the cycles swapped the auto basis's box is the user box transposed;
    # read as the user box it classified 2 interior and 4 boundary points
    wmap = grid_map(2, 3)
    auto = homology_basis(wmap)
    user = set_user_basis(wmap, auto.cycles[::-1])
    report = classify(wmap, user)
    assert (report.interior_count, report.boundary_count) == (2, 10)
    with pytest.raises(InternalError, match="different basis"):
        classify(wmap, user, dual_ball(wmap, auto))
    assert classify(wmap, user, dual_ball(wmap, user)) == report
    # an equal basis built anew shares the box
    assert classify(wmap, homology_basis(wmap), dual_ball(wmap, auto)) == classify(wmap, auto)


def test_report_metadata(g22, b22):
    report = classify(g22, b22)
    assert report.map_digest == g22.digest
    assert report.basis_label == "user"
    assert report.parity == (0, 0)
