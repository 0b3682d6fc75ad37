from itertools import product

import pytest

from wallnorm import (
    NotRealizable,
    class_of,
    contains,
    dual_ball,
    eulerian_class_counter,
    extend_highest,
    gamma_parity,
    is_eulerian,
    realize,
    seed_values,
)
from wallnorm.eikonal import read_coorientation

from conftest import potential_field


def test_seed_values_basics(g11, b11):
    zero = seed_values(b11, (0, 0), 3)
    assert set(zero.values()) == {0}
    seed = seed_values(b11, (1, 1), 3)
    for h, value in seed.items():
        assert value == h[0] + h[1]
    negated = seed_values(b11, (-1, -1), 3)
    assert all(negated[h] == -seed[h] for h in seed)


def test_extension_below_seed_with_equality_when_admissible(g11, b11):
    # (1,1) is a vertex of the ball and parity-admissible: the seed is
    # pre-eikonal and the extension reproduces it on the deck orbit
    field = extend_highest(g11, b11, seed_values(b11, (1, 1), 4), 4, target=(1, 1))
    for h in product(range(-4, 5), repeat=2):
        assert field.values[(0, h)] == h[0] + h[1]

    # n = 0 fails the parity test on G(1,1); the extension stays below the
    # seed but cannot match it everywhere
    field0 = extend_highest(g11, b11, seed_values(b11, (0, 0), 4), 4, target=(0, 0))
    assert field0.values[(0, (0, 0))] == 0
    assert all(field0.values[(0, h)] <= 0 for h in product(range(-5, 5), repeat=2)
               if abs(h[0]) <= 4 and abs(h[1]) <= 4)


def test_eikonal_field_checks_g11(g11, b11):
    field = extend_highest(g11, b11, seed_values(b11, (1, 1), 4), 4, target=(1, 1))
    assert field.eikonal_violations(4) == []
    assert field.equivariance_violations(4) == []


def test_eikonal_field_checks_g22_interior_box(g22, b22):
    radius = 6
    field = extend_highest(g22, b22, seed_values(b22, (0, 0), radius), radius, target=(0, 0))
    safe = radius // 2
    assert field.eikonal_violations(safe) == []
    assert field.equivariance_violations(safe) == []


def test_potential_field_is_eikonal_and_equivariant(g22, b22, genus2, genus2_basis):
    for wmap, basis, n, radius in (
        (g22, b22, (0, 0), 3),
        (g22, b22, (2, 0), 3),
        (genus2, genus2_basis, sorted(eulerian_class_counter(genus2, genus2_basis))[0], 1),
    ):
        field = potential_field(wmap, basis, n, radius)
        assert field.eikonal_violations(radius) == []
        assert field.equivariance_violations(radius) == []


def test_potential_equals_cover_field_inside_the_box(g22, b22):
    radius = 6
    for n in ((0, 0), (2, 0), (1, 1), (-2, 2)):
        cover = extend_highest(g22, b22, seed_values(b22, n, radius), radius, target=n)
        lifted = potential_field(g22, b22, n, radius // 2)
        assert lifted.values.items() <= cover.values.items()


def test_read_off_consistency(g22, b22):
    radius = 6
    field = extend_highest(g22, b22, seed_values(b22, (2, 0), radius), radius, target=(2, 0))
    coor = read_coorientation(field, radius // 2)
    # consistency across lifts is what read_coorientation enforces; the
    # descent produced an actual coorientation
    assert coor is not None
    assert len(coor) == g22.edge_count


def _all_coorientations(wmap):
    from wallnorm import enumerate_eulerian

    return enumerate_eulerian(wmap).items


def test_realize_g11(g11, b11):
    result = realize(g11, b11, (1, 1))
    assert result.method == "eikonal"
    assert is_eulerian(g11, result.coorientation)
    assert class_of(g11, result.coorientation, b11) == (1, 1)
    # oracle: the result must appear in the exhaustive enumeration
    assert result.coorientation.signs in {c.signs for c in _all_coorientations(g11)}


def test_realize_parity_rejection(g11, b11):
    with pytest.raises(NotRealizable) as info:
        realize(g11, b11, (0, 0))
    assert info.value.reason == "parity"


def test_realize_outside_rejection(g11, b11):
    with pytest.raises(NotRealizable) as info:
        realize(g11, b11, (3, 1))
    assert info.value.reason == "outside-ball"


def test_realize_g22_zero_class(g22, b22):
    result = realize(g22, b22, (0, 0))
    assert is_eulerian(g22, result.coorientation)
    assert class_of(g22, result.coorientation, b22) == (0, 0)


def test_realize_all_congruent_points(g11, b11, g22, b22, g23, b23):
    for wmap, basis in ((g11, b11), (g22, b22), (g23, b23)):
        ball = dual_ball(wmap, basis)
        parity = gamma_parity(wmap, basis)
        classes = set(eulerian_class_counter(wmap, basis))
        ranges = [range(lo, hi + 1) for lo, hi in ball.bounding_box()]
        for point in product(*ranges):
            if any((x - p) % 2 for x, p in zip(point, parity)):
                continue
            if contains(ball, point) == "outside":
                continue
            assert point in classes  # Eulerian class multiset covers the point
            result = realize(wmap, basis, point)
            assert is_eulerian(wmap, result.coorientation)
            assert class_of(wmap, result.coorientation, basis) == point


def test_realize_lookup_method(g22, b22):
    result = realize(g22, b22, (2, 2), method="lookup")
    assert result.method == "enumeration-fallback"
    assert class_of(g22, result.coorientation, b22) == (2, 2)


def test_realize_genus2(genus2, genus2_basis):
    classes = sorted(eulerian_class_counter(genus2, genus2_basis))
    target = classes[0]
    result = realize(genus2, genus2_basis, target)
    assert is_eulerian(genus2, result.coorientation)
    assert class_of(genus2, result.coorientation, genus2_basis) == target


def test_realize_forced_eikonal_method(g22, b22):
    result = realize(g22, b22, (0, 0), method="eikonal")
    assert result.method == "eikonal"
    assert class_of(g22, result.coorientation, b22) == (0, 0)


def test_realize_rejects_unknown_method(g22, b22):
    with pytest.raises(ValueError):
        realize(g22, b22, (0, 0), method="magic")
