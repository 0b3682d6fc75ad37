import random
from itertools import product

import pytest

from wallnorm import (
    Coorientation,
    MalformedInput,
    NotBipartite,
    NotEulerian,
    ResourceLimit,
    brunella_coorientations,
    checkerboard_coorientation,
    class_of,
    class_of_walk,
    enumerate_eulerian,
    evaluate,
    gamma_parity,
    homology_basis,
    is_eulerian,
    iter_eulerian,
    vertex_kind,
)
from wallnorm import coorient as coorient_module
from wallnorm.fixtures import grid_basis, grid_map
from wallnorm.surface_map import reverse_walk

from conftest import random_closed_walk


def brute_force_eulerian(wmap):
    return {
        signs
        for signs in product((1, -1), repeat=wmap.edge_count)
        if is_eulerian(wmap, Coorientation(signs))
    }


def kappa_sum_oracle(wmap, signs):
    """Direct per-vertex cancellation check, independent of is_eulerian."""
    totals = [0] * wmap.vertex_count
    for j, (tail, head) in enumerate(wmap.edges):
        totals[wmap.dart_vertex[tail]] += signs[j]
        totals[wmap.dart_vertex[head]] -= signs[j]
    return all(t == 0 for t in totals)


def test_g11_all_coorientations_eulerian(g11):
    # both darts of each loop edge meet the vertex with opposite kappa
    for signs in product((1, -1), repeat=2):
        assert kappa_sum_oracle(g11, signs)
        assert is_eulerian(g11, Coorientation(signs))


def test_is_eulerian_matches_kappa_oracle(g22, genus2, random_maps):
    for wmap in [g22, genus2] + random_maps[:4]:
        for signs in product((1, -1), repeat=wmap.edge_count):
            assert is_eulerian(wmap, Coorientation(signs)) == kappa_sum_oracle(wmap, signs)


def test_g22_checkerboard_is_eulerian(g22, b22):
    coor = checkerboard_coorientation(g22)
    assert is_eulerian(g22, coor)
    assert class_of(g22, coor, b22) == (0, 0)


def test_g22_unbalanced_vertex_not_eulerian(g22):
    # make every edge at vertex 0 point away from it: vertex sum +-4
    signs = [1] * 8
    tail_edges = {g22.dart_edge[d] for d in g22.rotations[0] if g22.dart_is_tail[d]}
    head_edges = {g22.dart_edge[d] for d in g22.rotations[0] if not g22.dart_is_tail[d]}
    for e in head_edges - tail_edges:
        signs[e] = -1
    coor = Coorientation(tuple(signs))
    assert not is_eulerian(g22, coor)


def test_enumeration_matches_brute_force(g11, g22, g23, genus2, one_curve, random_maps):
    for wmap in [g11, g22, g23, genus2, one_curve] + random_maps:
        if wmap.edge_count > 16:
            continue
        expected = brute_force_eulerian(wmap)
        got = {c.signs for c in enumerate_eulerian(wmap).items}
        assert got == expected


def test_enumeration_order_lexicographic(g22):
    items = list(iter_eulerian(g22))
    keys = [tuple(0 if s > 0 else 1 for s in c.signs) for c in items]
    assert keys == sorted(keys)


def test_count_bounds(g11, g22, g23, genus2, random_maps):
    for wmap in [g11, g22, g23, genus2] + random_maps:
        count = enumerate_eulerian(wmap).count
        assert 2 ** len(wmap.curves) <= count <= 2 ** wmap.edge_count


def test_resource_limit():
    wmap = grid_map(2, 2)
    with pytest.raises(ResourceLimit):
        list(iter_eulerian(wmap, limit=5))


def test_resource_limit_cold_and_warm():
    wmap = grid_map(2, 3)
    basis = homology_basis(wmap)
    coorient_module._eulerian_cache.pop(wmap.digest, None)
    with pytest.raises(ResourceLimit):
        enumerate_eulerian(wmap, basis, limit=5)
    assert enumerate_eulerian(wmap, basis).count == 44  # now cached
    with pytest.raises(ResourceLimit):
        enumerate_eulerian(wmap, basis, limit=5)
    assert enumerate_eulerian(wmap, basis, limit=44).count == 44


def test_brunella(g11, g22, genus2, one_curve, random_maps):
    for wmap in [g11, g22, genus2, one_curve] + random_maps[:4]:
        out = brunella_coorientations(wmap)
        assert len(out) == 2 ** len(wmap.curves)
        assert len({c.signs for c in out}) == len(out)
        for coor in out:
            assert is_eulerian(wmap, coor)
            for v in range(wmap.vertex_count):
                assert vertex_kind(wmap, coor, v) == "transparent"


def test_brunella_g11_equals_enumeration(g11):
    assert {c.signs for c in brunella_coorientations(g11)} == {
        c.signs for c in enumerate_eulerian(g11).items
    }


def test_checkerboard_not_bipartite_cases(g11, g23):
    for wmap in (g11, g23):
        with pytest.raises(NotBipartite):
            checkerboard_coorientation(wmap)


def test_checkerboard_g24():
    wmap = grid_map(2, 4)
    basis = grid_basis(wmap, 2, 4)
    coor = checkerboard_coorientation(wmap)
    assert is_eulerian(wmap, coor)
    # oracle: evaluate on the standard basis walks directly
    assert tuple(evaluate(wmap, coor, b) for b in basis.cycles) == (0, 0)
    assert class_of(wmap, coor, basis) == (0, 0)


def test_evaluate_basics(g22, b22):
    coor = checkerboard_coorientation(g22)
    assert evaluate(g22, coor, ()) == 0
    rng = random.Random(3)
    for _ in range(20):
        walk = random_closed_walk(g22, rng)
        value = evaluate(g22, coor, walk)
        assert evaluate(g22, coor, reverse_walk(walk)) == -value
        assert abs(value) <= len(walk)


def test_class_of_reference_signs_g11(g11, b11):
    # both edges at reference sign: crossing each standard cycle contributes +1
    coor = Coorientation((1, 1))
    assert class_of(g11, coor, b11) == (1, 1)
    assert class_of(g11, coor.reversed(), b11) == (-1, -1)


def test_class_of_requires_eulerian(g22, b22):
    signs = [1] * 8
    # flip a single edge of the checkerboard to break the vertex balance
    base = checkerboard_coorientation(g22).signs
    signs = list(base)
    signs[0] = -signs[0]
    coor = Coorientation(tuple(signs))
    if not is_eulerian(g22, coor):
        with pytest.raises(NotEulerian):
            class_of(g22, coor, b22)


def test_homology_invariance_of_evaluate(g11, g22, g23, genus2):
    rng = random.Random(77)
    for wmap in (g11, g22, g23, genus2):
        basis = homology_basis(wmap)
        eul = enumerate_eulerian(wmap, basis)
        coors = eul.items[:: max(1, len(eul.items) // 6)]
        for _ in range(25):
            w1 = random_closed_walk(wmap, rng)
            w2 = random_closed_walk(wmap, rng)
            c1 = class_of_walk(w1, basis)
            c2 = class_of_walk(w2, basis)
            for coor in coors:
                lhs = evaluate(wmap, coor, w1) - evaluate(wmap, coor, w2)
                cls = class_of(wmap, coor, basis)
                rhs = sum(k * (a - b) for k, a, b in zip(cls, c1, c2))
                assert lhs == rhs


def test_parity_of_evaluations(g11, g22, g23, genus2, random_maps):
    for wmap in [g11, g22, g23, genus2] + random_maps[:4]:
        basis = homology_basis(wmap)
        parity = gamma_parity(wmap, basis)
        for coor in enumerate_eulerian(wmap, basis).items:
            for i, b in enumerate(basis.cycles):
                assert evaluate(wmap, coor, b) % 2 == parity[i]


def test_local_classification(g22, genus2, random_maps):
    for wmap in [g22, genus2] + random_maps[:4]:
        for coor in enumerate_eulerian(wmap).items:
            kinds = {vertex_kind(wmap, coor, v) for v in range(wmap.vertex_count)}
            assert kinds <= {"alternating", "transparent"}


def test_coorientation_file_round_trip(g22):
    coor = checkerboard_coorientation(g22)
    text = coor.to_text()
    assert Coorientation.from_text(text, g22.edge_count) == coor
    with pytest.raises(MalformedInput):
        Coorientation.from_text("edge 0: +\n", g22.edge_count)
    with pytest.raises(MalformedInput):
        Coorientation.from_text(text.replace("edge 3", "edge 99"), g22.edge_count)
