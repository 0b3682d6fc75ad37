import io
import random
import re
from collections import Counter
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    eulerian_class_counts,
    evaluate,
    gamma_parity,
    homology_basis,
    is_eulerian,
    iter_eulerian,
    vertex_kind,
)
from wallnorm import cli
from wallnorm import coorient as coorient_module
from wallnorm.fixtures import (
    four_geodesic_example,
    genus2_example,
    grid_basis,
    grid_map,
    grid_text,
    one_curve_example,
    random_wall_system,
)
from wallnorm.homology import set_user_basis
from wallnorm.surface_map import concat_closed_walks, parse_wall_system, reverse_walk

import reference
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


def test_incidence_sums_equal_the_per_dart_definition(g22, g23, genus2):
    # every coorientation: each vertex's terms are kappa(d) * sign(edge of d) over its darts
    for wmap in (g22, g23, genus2):
        assert wmap.incidence == tuple(
            tuple((wmap.dart_edge[d], wmap.kappa(d)) for d in rot) for rot in wmap.rotations)
        for signs in product((1, -1), repeat=wmap.edge_count):
            coor = Coorientation(signs)
            terms = [[wmap.kappa(d) * signs[wmap.dart_edge[d]] for d in rot]
                     for rot in wmap.rotations]
            assert is_eulerian(wmap, coor) == all(sum(t) == 0 for t in terms)
            for v, t in enumerate(terms):
                kind = ("none" if sum(t) else
                        "transparent" if t[0] + t[2] == 0 and t[1] + t[3] == 0 else "alternating")
                assert vertex_kind(wmap, coor, v) == kind


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


def test_enumeration_order_lexicographic(g22, g23, genus2):
    for wmap in (g22, g23, grid_map(3, 3), four_geodesic_example(), genus2):
        items = list(iter_eulerian(wmap))
        keys = [tuple(0 if s > 0 else 1 for s in c.signs) for c in items]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)


def _differential_cases():
    """(map, basis) pairs: small grids, the named examples, random maps, a skewed basis."""
    cases = [(grid_map(m, n), None) for m in (1, 2, 3) for n in (1, 2, 3)]
    cases += [(four_geodesic_example(), None), (genus2_example(), None)]
    rng = random.Random(20261018)
    wanted = {2: 3, 3: 2}
    while any(wanted.values()):
        wmap = random_wall_system(rng.choice((3, 4, 5, 6)), rng)
        if wanted.get(wmap.genus):
            wanted[wmap.genus] -= 1
            cases.append((wmap, None))
    four = four_geodesic_example()
    w1, w2 = homology_basis(four).cycles
    skew = set_user_basis(four, (concat_closed_walks(four.dual_graph, w1, w2), w2))
    cases.append((four, skew))
    return cases


def test_enumeration_classes_match_class_of():
    for wmap, basis in _differential_cases():
        basis = basis if basis is not None else homology_basis(wmap)
        eul = enumerate_eulerian(wmap, basis)
        assert eul.classes == Counter(class_of(wmap, c, basis) for c in eul.items), wmap.digest
        if wmap.edge_count <= 16:
            expected = sorted(brute_force_eulerian(wmap), reverse=True)  # + before -
            assert [c.signs for c in eul.items] == expected, wmap.digest


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
    with pytest.raises(ResourceLimit):
        enumerate_eulerian(wmap, basis, limit=5)
    assert enumerate_eulerian(wmap, basis).count == 44  # nothing is kept between calls
    with pytest.raises(ResourceLimit):
        enumerate_eulerian(wmap, basis, limit=5)
    assert enumerate_eulerian(wmap, basis, limit=44).count == 44


def _counted_by_both(wmap):
    """The DP's answer and the enumeration's, each on its own freshly parsed map and basis."""
    sides = []
    for _ in range(2):
        again = parse_wall_system(wmap.canonical_text)
        sides.append((again, homology_basis(again)))
    (dp_map, dp_basis), (enum_map, enum_basis) = sides
    counted = eulerian_class_counts(dp_map, dp_basis)
    assert dp_basis._memo == {}  # the DP keeps nothing
    items = enumerate_eulerian(enum_map, enum_basis).items
    return counted, (len(items), Counter(class_of(enum_map, c, enum_basis) for c in items))


FIXTURE_MAPS = [
    *(pytest.param(lambda m=m, n=n: grid_map(m, n), id=f"G{m}{n}")
      for m in range(1, 5) for n in range(m, 6)),
    pytest.param(four_geodesic_example, id="four"),
    pytest.param(one_curve_example, id="one-curve"),
    pytest.param(genus2_example, id="genus2"),
]


@pytest.mark.parametrize("make", FIXTURE_MAPS)
def test_class_counts_equal_the_enumeration_on_fixtures(make):
    counted, enumerated = _counted_by_both(make())
    assert counted == enumerated


@settings(derandomize=True, deadline=None, max_examples=40)
@given(seed=st.integers(0, 2**32 - 1))
def test_class_counts_equal_the_enumeration_on_random_maps(seed):
    rng = random.Random(seed)
    wmap = random_wall_system(rng.randint(2, 9), rng)
    while wmap.genus > 4:
        wmap = random_wall_system(rng.randint(2, 9), rng)
    counted, enumerated = _counted_by_both(wmap)
    assert counted == enumerated


def _held_to_the_reference(wmap):
    """Search items and order, cap and class counts against the per-step bookkeeping copies."""
    found = coorient_module._search_eulerian(wmap, 10**6)
    assert found == reference.search_eulerian(wmap, 10**6)
    for search in (coorient_module._search_eulerian, reference.search_eulerian):
        with pytest.raises(ResourceLimit):
            search(wmap, len(found) - 1)
    basis = homology_basis(wmap)
    assert eulerian_class_counts(wmap, basis) == reference.eulerian_class_counts(wmap, basis)


@pytest.mark.parametrize("make", FIXTURE_MAPS)
def test_schedule_search_and_count_equal_the_reference_on_fixtures(make):
    _held_to_the_reference(make())


def test_schedule_search_and_count_equal_the_reference_on_seeded_maps():
    both_darts_at_one_vertex = 0
    for seed in range(48):
        wmap = random_wall_system(2 + seed % 8, random.Random(seed))
        both_darts_at_one_vertex += sum(
            wmap.dart_vertex[t] == wmap.dart_vertex[h] for t, h in wmap.edges)
        _held_to_the_reference(wmap)
    assert both_darts_at_one_vertex >= 20


def test_class_counts_ignore_the_cap_the_enumeration_keeps(monkeypatch):
    message = "Eulerian enumeration exceeded the cap of 5; results would be partial"
    wmap = grid_map(2, 3)
    basis = homology_basis(wmap)
    monkeypatch.setenv("WALLNORM_MAX_ENUM", "5")
    with pytest.raises(ResourceLimit, match=f"^{re.escape(message)}$"):
        enumerate_eulerian(parse_wall_system(wmap.canonical_text))
    count, classes = eulerian_class_counts(wmap, basis)
    assert count == sum(classes.values()) == 44


def test_class_count_and_listing_report_the_cap_alike(tmp_path, capsys):
    wall = tmp_path / "G23.wall"
    wall.write_text(grid_text(2, 3))
    errors = []
    for extra in ([], ["--list", str(tmp_path / "coors")]):
        out = io.StringIO()
        assert cli.main(["coorientations", str(wall), "--classes", "--max-enum", "5", *extra],
                        out=out) == 1
        errors.append((out.getvalue(), capsys.readouterr().err))
    assert errors[0] == errors[1]
    assert errors[0][1] == (
        "error: ResourceLimit: Eulerian enumeration exceeded the cap of 5; "
        "results would be partial\n"
    )


def test_class_counts_refuse_a_layer_over_the_state_budget(monkeypatch, tmp_path, capsys):
    wmap = grid_map(3, 3)
    basis = homology_basis(wmap)
    monkeypatch.setattr(coorient_module, "MAX_DP_STATES", 20)
    with pytest.raises(ResourceLimit, match="over the budget of 20") as refused:
        eulerian_class_counts(wmap, basis)
    edge, edges = map(int, re.search(r"at edge (\d+) of (\d+)", str(refused.value)).groups())
    assert edge < edges == wmap.edge_count  # refused while the DP runs, not after it
    wall = tmp_path / "G33.wall"
    wall.write_text(grid_text(3, 3))
    assert cli.main(["classes", str(wall)], out=io.StringIO()) == 1
    assert "over the budget of 20" in capsys.readouterr().err
    monkeypatch.setattr(coorient_module, "MAX_DP_STATES", 10**6)
    assert eulerian_class_counts(wmap, basis)[0] == 148


def test_enumeration_searches_on_every_call(monkeypatch):
    searched = []
    search = coorient_module._search_eulerian

    def counted(wmap, cap):
        searched.append(wmap)
        return search(wmap, cap)

    monkeypatch.setattr(coorient_module, "_search_eulerian", counted)
    wmap = grid_map(2, 3)
    auto, grid = homology_basis(wmap), grid_basis(wmap, 2, 3)
    eul_auto = enumerate_eulerian(wmap, auto)
    eul_grid = enumerate_eulerian(wmap, grid)
    assert len(searched) == 2  # nothing is kept on the map: each call searches
    assert eul_grid.items == eul_auto.items
    for eul, basis in ((eul_auto, auto), (eul_grid, grid)):
        assert eul.classes == Counter(class_of(wmap, c, basis) for c in eul.items)
    assert eul_auto.classes != eul_grid.classes


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


def test_wrong_lengths_are_refused(g22, b22):
    with pytest.raises(MalformedInput) as info:
        is_eulerian(g22, Coorientation((1,) * 7))
    assert type(info.value) is MalformedInput
    assert str(info.value) == "coorientation length does not match the edge count"
    with pytest.raises(ValueError) as info:
        coorient_module.support_coorientation(g22, b22, (1, 0, 0))
    assert type(info.value) is ValueError
    assert str(info.value) == "direction must have 2 coordinates"


def test_direct_construction_checks_signs():
    for signs in ((1, 0), (1, 2), (-1, -2)):
        with pytest.raises(MalformedInput):
            Coorientation(signs)


def test_enumerated_items_equal_checked_ones(g22, genus2):
    for wmap in (g22, genus2):
        for coor in iter_eulerian(wmap):
            checked = Coorientation(coor.signs)
            assert coor == checked and hash(coor) == hash(checked)
