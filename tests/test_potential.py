"""The highest potential against independent references.

Ball positions are compared with the rational LP ``simplex.hull_position``
over the ball's class points, realized signs with the truncated cover field
of ``extend_highest``, and every outside answer is checked through its
certificate walk.
"""

import random
from itertools import product

import pytest

from wallnorm import (
    NotRealizable,
    class_of_walk,
    contains,
    dual_ball,
    extend_highest,
    gamma_parity,
    highest_potential,
    homology_basis,
    realize,
    seed_values,
)
from wallnorm.eikonal import read_coorientation
from wallnorm.fixtures import (
    four_geodesic_example,
    genus2_example,
    grid_basis,
    grid_map,
    random_wall_system,
)
from wallnorm.simplex import hull_position

# Lattice points compared per random map.  The box plus one ring of a
# genus-3 ball holds up to 15625 points, too many Fraction LPs for the suite.
RANDOM_MAP_POINTS = 60


def _box_and_ring(ball):
    return list(product(*(range(lo - 1, hi + 2) for lo, hi in ball.bounding_box())))


def _loaded(wmap, basis=None):
    basis = basis if basis is not None else homology_basis(wmap)
    return wmap, basis, dual_ball(wmap, basis)


@pytest.fixture(scope="module")
def random_higher_genus():
    """Eight seeded random maps: six of genus 2, two of genus 3."""
    rng = random.Random(20261018)
    wanted = {2: 6, 3: 2}
    out = []
    while any(wanted.values()):
        wmap = random_wall_system(rng.choice((3, 4, 5)), rng)
        if wanted.get(wmap.genus):
            wanted[wmap.genus] -= 1
            out.append(_loaded(wmap))
    return out


def _grid(m, n):
    wmap = grid_map(m, n)
    return _loaded(wmap, grid_basis(wmap, m, n))


FIXTURES = {
    **{f"G{m}{n}": (lambda m=m, n=n: _grid(m, n)) for m, n in product((1, 2, 3), repeat=2)},
    "four-geodesic": lambda: _loaded(four_geodesic_example()),
    "genus2": lambda: _loaded(genus2_example()),
}


@pytest.mark.parametrize("name", FIXTURES)
def test_position_matches_lp_on_fixtures(name):
    _, _, ball = FIXTURES[name]()
    for p in _box_and_ring(ball):
        assert contains(ball, p) == hull_position(ball.points, p), p


def test_position_matches_lp_on_random_maps(random_higher_genus):
    rng = random.Random(7)
    for wmap, _, ball in random_higher_genus:
        points = _box_and_ring(ball)
        if len(points) > RANDOM_MAP_POINTS:
            points = rng.sample(points, RANDOM_MAP_POINTS)
        for p in points:
            assert contains(ball, p) == hull_position(ball.points, p), (wmap.digest, p)


@pytest.mark.parametrize("m,n", [(1, 1), (2, 2), (2, 3)])
def test_realized_signs_match_cover_field(m, n):
    wmap, basis, ball = _grid(m, n)
    parity = gamma_parity(wmap, basis)
    radius = 6  # the read-off box of radius 3 is stable on these grids
    checked = 0
    for p in product(*(range(lo, hi + 1) for lo, hi in ball.bounding_box())):
        if any((x - q) % 2 for x, q in zip(p, parity)) or contains(ball, p) == "outside":
            continue
        field = extend_highest(wmap, basis, seed_values(basis, p, radius), radius, target=p)
        assert realize(wmap, basis, p).coorientation == read_coorientation(field, radius // 2)
        checked += 1
    assert checked == len(set(ball.points))


def _assert_certificate(wmap, basis, n, walk):
    wmap.dual_graph.check_closed(walk)
    pairing = sum(a * b for a, b in zip(n, class_of_walk(walk, basis)))
    assert 0 < len(walk) < pairing, (n, walk)


def test_outside_points_carry_a_negative_walk(random_higher_genus):
    maps = [_grid(2, 3), _loaded(genus2_example())] + random_higher_genus[:2]
    for wmap, basis, ball in maps:
        outside = 0
        for p in _box_and_ring(ball):
            potential = highest_potential(wmap, basis, p)
            if potential.position == "outside":
                outside += 1
                assert potential.values is None and potential.steps is None
                _assert_certificate(wmap, basis, p, potential.certificate)
            else:
                assert potential.certificate is None
        assert outside > 0


def test_realize_outside_carries_certificate():
    wmap, basis, _ = _grid(2, 2)
    n = (4, 0)
    with pytest.raises(NotRealizable) as info:
        realize(wmap, basis, n)
    assert info.value.reason == "outside-ball"
    assert str(info.value) == "class (4, 0) lies outside the dual ball"
    _assert_certificate(wmap, basis, n, info.value.certificate)


def test_parity_rejection_has_no_certificate():
    wmap, basis, _ = _grid(1, 1)
    with pytest.raises(NotRealizable) as info:
        realize(wmap, basis, (0, 0))
    assert info.value.reason == "parity"
    assert info.value.certificate is None


def test_potential_rejects_wrong_rank():
    wmap, basis, _ = _grid(1, 1)
    with pytest.raises(ValueError):
        highest_potential(wmap, basis, (1, 1, 1))


def test_contains_needs_the_ball_of_a_map():
    wmap, basis, ball = _grid(1, 1)
    with pytest.raises(ValueError):
        contains(type(ball)(ball.points, ball.extreme, ball.dim), (0, 0))
