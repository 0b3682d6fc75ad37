import random
from itertools import product

import pytest

from wallnorm import EikonalField, fixtures, highest_potential, homology_basis
from wallnorm.fixtures import grid_basis, grid_map


@pytest.fixture(scope="session")
def g11():
    return grid_map(1, 1)


@pytest.fixture(scope="session")
def g22():
    return grid_map(2, 2)


@pytest.fixture(scope="session")
def g23():
    return grid_map(2, 3)


@pytest.fixture(scope="session")
def b11(g11):
    return grid_basis(g11, 1, 1)


@pytest.fixture(scope="session")
def b22(g22):
    return grid_basis(g22, 2, 2)


@pytest.fixture(scope="session")
def b23(g23):
    return grid_basis(g23, 2, 3)


@pytest.fixture(scope="session")
def genus2():
    return fixtures.genus2_example()


@pytest.fixture(scope="session")
def genus2_basis(genus2):
    return homology_basis(genus2)


@pytest.fixture(scope="session")
def one_curve():
    return fixtures.one_curve_example()


@pytest.fixture(scope="session")
def random_maps():
    """A deterministic batch of valid random maps with V in {2, .., 6}."""
    rng = random.Random(987123)
    batch = [fixtures.random_wall_system(2 + k % 3, rng) for k in range(12)]
    batch += [fixtures.random_wall_system(v, rng) for v in (5, 6)]
    return batch


def random_closed_walk(wmap, rng, max_steps=12):
    """A random closed dual walk: wander, then return along a shortest path."""
    dual = wmap.dual_graph
    start = rng.randrange(dual.node_count)
    here = start
    crossings = []
    for _ in range(rng.randrange(max_steps)):
        edge, direction, other = rng.choice(dual.moves[here])
        crossings.append((edge, direction))
        here = other
    crossings.extend(dual.shortest_path(here, start))
    return tuple(crossings)


def potential_field(wmap, basis, n, radius):
    """The highest potential lifted to the cover box: f(F, h) = n.h + g(F)."""
    g = highest_potential(wmap, basis, n).values
    values = {
        (face, h): sum(a * b for a, b in zip(n, h)) + g[face]
        for face in range(len(g))
        for h in product(range(-radius, radius + 1), repeat=basis.rank)
    }
    return EikonalField(wmap, basis, tuple(n), radius, 0, values)
