import io
import math
import operator
import os
import random
import subprocess
import sys
import textwrap
from itertools import islice, product
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from wallnorm import (
    class_of_walk,
    homology_basis,
    min_multicurve,
    min_single_cycle,
    norm,
    set_user_basis,
    verify_min_equals_max,
)
from wallnorm import cli, fixtures, oracle
from wallnorm.errors import BoxExceeded, ResourceLimit, UnstableTruncation
from wallnorm.fixtures import grid_basis, grid_map, random_wall_system
from wallnorm.surface_map import concat_closed_walks

import reference


def test_min_single_cycle_g11(g11, b11):
    length, walk = min_single_cycle(g11, b11, (1, 0), 3)
    assert length == 1
    assert class_of_walk(walk, b11) == (1, 0)


def test_min_single_cycle_g22_values(g22, b22):
    assert min_single_cycle(g22, b22, (1, 0), 5)[0] == 2
    assert min_single_cycle(g22, b22, (1, 1), 5)[0] == 4
    assert min_single_cycle(g22, b22, (4, 1), 8)[0] == 10


def test_min_multicurve_zero(g22, b22):
    value, cert = min_multicurve(g22, b22, (0, 0))
    assert value == 0
    assert cert.cycles == ()
    assert cert.total_length == 0


def test_min_multicurve_g22_41(g22, b22):
    value, cert = min_multicurve(g22, b22, (4, 1))
    assert value == 10
    assert cert.total_class == (4, 1)


def test_g11_oracle_equals_max_over_classes(g11, b11):
    # cross-check against the four Eulerian classes of G(1,1) directly
    classes = [(1, 1), (1, -1), (-1, 1), (-1, -1)]
    for a in product(range(-2, 3), repeat=2):
        value, _ = min_multicurve(g11, b11, a)
        expected = max(p[0] * a[0] + p[1] * a[1] for p in classes)
        assert value == expected


def test_certificate_validity(g22, b22, genus2, genus2_basis):
    rng = random.Random(6)
    for wmap, basis in ((g22, b22), (genus2, genus2_basis)):
        dual = wmap.dual_graph
        for _ in range(8):
            a = tuple(rng.randrange(-2, 3) for _ in range(basis.rank))
            value, cert = min_multicurve(wmap, basis, a)
            assert cert.total_class == a
            assert cert.total_length == value
            assert sum(length for _, _, length in cert.cycles) == value
            total = (0,) * basis.rank
            for walk, coords, length in cert.cycles:
                dual.check_closed(walk)
                assert len(walk) == length
                assert class_of_walk(walk, basis) == coords
                total = tuple(t + c for t, c in zip(total, coords))
            assert total == a


def test_oracle_symmetry_subadditivity_homogeneity(g22, b22):
    values = {}
    for a in product(range(-3, 4), repeat=2):
        values[a] = min_multicurve(g22, b22, a)[0]
    for a, va in values.items():
        assert values[(-a[0], -a[1])] == va
        for b_, vb in values.items():
            c = (a[0] + b_[0], a[1] + b_[1])
            if c in values:
                assert values[c] <= va + vb
    for a in product(range(-1, 2), repeat=2):
        for n in range(-3, 4):
            na = (n * a[0], n * a[1])
            if na in values:
                assert values[na] == abs(n) * values[a]


def test_monotone_truncation(g22, b22):
    # larger boxes can only improve or keep the value
    previous = None
    for h in range(4, 9):
        value, _ = min_multicurve(g22, b22, (2, 1), h)
        if previous is not None:
            assert value <= previous
        previous = value


def test_box_exceeded_and_escalation(g11):
    auto = homology_basis(g11)
    w1, w2 = auto.cycles
    skew = set_user_basis(
        g11,
        (
            concat_closed_walks(g11.dual_graph, w1, w1, w2),
            concat_closed_walks(g11.dual_graph, w1, w2),
        ),
    )
    # class (1,1) in the skewed basis needs intermediate states outside the
    # minimal box, so the tight truncation fails outright ...
    with pytest.raises(BoxExceeded):
        min_single_cycle(g11, skew, (1, 1), 1)
    # ... and the multicurve search escalates the radius and still succeeds
    value, cert = min_multicurve(g11, skew, (1, 1))
    assert value >= 1
    assert cert.total_class == (1, 1)


def test_min_single_cycle_precondition(g22, b22):
    with pytest.raises(ValueError):
        min_single_cycle(g22, b22, (3, 0), 2)


def test_verify_grids(g11, b11, g22, b22, g23, b23):
    assert verify_min_equals_max(g11, b11, 3).ok
    assert verify_min_equals_max(g22, b22, 3).ok
    assert verify_min_equals_max(g23, b23, 2).ok


def test_verify_small_fixtures_box3(one_curve, genus2, genus2_basis):
    # min = max over the full +-3 box on every fixture with at most 12 edges
    g12 = grid_map(1, 2)
    assert verify_min_equals_max(g12, grid_basis(g12, 1, 2), 3).ok
    assert verify_min_equals_max(one_curve, homology_basis(one_curve), 3).ok
    assert verify_min_equals_max(genus2, genus2_basis, 3).ok


def _seeded_single_table(rank, radius, seed):
    """A single-cycle table with random lengths 1..9 and about a quarter of entries inf."""
    rng = random.Random(seed)
    return {c: (math.inf, -1) if rng.random() < 0.25 else (rng.randint(1, 9), 0)
            for c in oracle._box_classes(rank, radius)}


@pytest.mark.parametrize("rank, radius", [(2, 1), (2, 2), (2, 3), (3, 2), (4, 1), (4, 2), (6, 1)])
def test_dp_tables_match_the_reference_on_seeded_tables(rank, radius):
    for seed in range(2):
        single = _seeded_single_table(rank, radius, seed)
        assert any(math.isinf(v) for v, _ in single.values())
        m, choice = oracle._dp_tables(single, radius)
        ref_m, ref_choice = reference.dp_tables(single, radius)
        assert (list(m.items()), choice) == (list(ref_m.items()), ref_choice)
        assert [type(v) for v in m.values()] == [type(v) for v in ref_m.values()]


def test_dp_tables_match_the_reference_on_fixture_tables(g22, b22, genus2, genus2_basis):
    four = fixtures.four_geodesic_example()
    cases = [(g22, b22, 2, 5), (g22, b22, 3, 3), (four, homology_basis(four), 2, 4),
             (genus2, genus2_basis, 1, 7), (genus2, genus2_basis, 2, 2)]
    for seed in (17, 27):  # the maps of test_composite_class_certificate
        wmap = random_wall_system(6, random.Random(seed))
        cases.append((wmap, homology_basis(wmap), 1, 7))
    wmap = _random_map(5, 3, 3)
    cases.append((wmap, homology_basis(wmap), 1, 2))
    for wmap, basis, radius, h in cases:
        single, _ = oracle._single_cycle_table(wmap, basis, radius, h)
        assert oracle._dp_tables(single, radius) == reference.dp_tables(single, radius)


def test_verify_reports_counts(g11, b11):
    report = verify_min_equals_max(g11, b11, 2)
    assert report.checked == 25
    assert report.box_radius == 2
    assert report.discrepancies == ()


def test_verify_random_maps(random_maps):
    for wmap in random_maps[:6]:
        basis = homology_basis(wmap)
        assert verify_min_equals_max(wmap, basis, 1).ok


def test_oracle_matches_norm_on_skewed_basis(g22):
    # same ball, different coordinates: both sides must transform together
    auto = homology_basis(g22)
    w1, w2 = auto.cycles
    combined = concat_closed_walks(g22.dual_graph, w1, w2)
    skew = set_user_basis(g22, (combined, w2))
    for a in product(range(-2, 3), repeat=2):
        value, _ = min_multicurve(g22, skew, a)
        assert value == norm(g22, skew, a).value


def test_box_exceeded_at_cap(g11):
    auto = homology_basis(g11)
    w1, w2 = auto.cycles
    # heavily skewed coordinates: every decomposition of the target inside
    # the class box needs intermediate states beyond the radius-1 truncation
    skew = set_user_basis(
        g11,
        (
            concat_closed_walks(g11.dual_graph, w1, w1, w1, w2, w2),
            concat_closed_walks(g11.dual_graph, w1, w2),
        ),
    )
    with pytest.raises(BoxExceeded):
        min_multicurve(g11, skew, (0, 1), h=1, max_truncation=1)
    # without the cap the escalation recovers the exact value
    value, cert = min_multicurve(g11, skew, (0, 1))
    assert cert.total_class == (0, 1)
    assert value >= 1


def test_unstable_truncation_error_path(g22, b22, monkeypatch):
    # fabricate values that keep improving as the truncation grows, and that
    # are never settled, to drive the doubling into the instability escape hatch
    built = []

    def fake_table(wmap, basis, radius, trunc):
        built.append(trunc)
        classes = oracle._box_classes(basis.rank, radius)
        return {c: (100 - trunc, 0) for c in classes}, False

    monkeypatch.setattr(oracle, "_single_cycle_table", fake_table)
    with pytest.raises(UnstableTruncation,
                       match=r"value for \(1, 0\) still improving at truncation 9"):
        min_multicurve(g22, b22, (1, 0), h=4, max_truncation=8)
    assert built == [4, 5, 8, 9]
    # the loop that always searches h + 1 fails the same way
    args = (g22, b22, 1, 4, 8, [(1, 0)], None, lambda cs, t: f"{cs} still improving at {t}")
    assert _outcome(oracle._stable_tables, *args) == _outcome(reference.stable_tables, *args) == \
        (UnstableTruncation, "[(1, 0)] still improving at 9")


def test_radii_must_be_nonnegative_integers(g22, b22):
    # int() would read a box of 1.7 as 1, and numpy failed on -1 and 2.5
    for bad, why in ((1.7, r"be an integer, not 1\.7"), (-1, "not be negative, not -1")):
        with pytest.raises(ValueError, match="box radius must " + why):
            verify_min_equals_max(g22, b22, bad)
    for bad, why in ((2.5, r"be an integer, not 2\.5"), (-1, "not be negative, not -1")):
        with pytest.raises(ValueError, match="truncation must " + why):
            min_multicurve(g22, b22, (1, 0), h=bad)
        with pytest.raises(ValueError, match="truncation must " + why):
            min_single_cycle(g22, b22, (1, 0), bad)
        with pytest.raises(ValueError, match="max_truncation must " + why):
            min_multicurve(g22, b22, (1, 0), max_truncation=bad)
    # any integer type is read as the integer it is
    assert verify_min_equals_max(g22, b22, np.int64(1)) == verify_min_equals_max(g22, b22, 1)
    assert min_multicurve(g22, b22, (1, 0), h=np.int64(5), max_truncation=np.int8(9)) == \
        min_multicurve(g22, b22, (1, 0), h=5, max_truncation=9)
    assert min_single_cycle(g22, b22, (1, 1), np.int64(5)) == min_single_cycle(g22, b22, (1, 1), 5)


def _count_tables(monkeypatch):
    """The truncations of every single-cycle table built from now on."""
    built = []
    table = oracle._single_cycle_table
    monkeypatch.setattr(oracle, "_single_cycle_table",
                        lambda *args: built.append(args[3]) or table(*args))
    return built


def test_a_settled_table_is_built_once(genus2, tmp_path, monkeypatch):
    # r = 1, and the genus-2 example's search stops at level L = 4, so
    # (L - 2) * r = 2 <= 7: every larger truncation gives the same tables,
    # and truncation 8 is not searched
    built = _count_tables(monkeypatch)
    wall = tmp_path / "genus2.wall"
    wall.write_text(genus2.canonical_text)
    out = io.StringIO()
    assert cli.main(["verify", str(wall), "--box", "1"], out=out) == 0
    assert "checked 81 classes in box 1 (truncation 7)" in out.getvalue()
    assert built == [7]
    wmap = _random_map(5, 2, 1)
    basis = homology_basis(wmap)
    built.clear()
    assert min_multicurve(wmap, basis, (1, 1, 1, 1))[0] == 5
    assert built == [7]


def test_the_settle_bound_is_tight():
    # one face, moves +-(2, 1), +-(2, 0), +-(1, 1), so r = 2.  At truncation
    # 1 the radius-1 box is labelled by level L = 3 and (L - 2) * r = 2 > 1:
    # truncation 2 does shorten (0, 1) = (2, 1) - (2, 0) through (2, 1)
    wmap = SimpleNamespace(faces=[0])
    moves = [(0, 0, (s * x, s * y), None) for x, y in ((2, 1), (2, 0), (1, 1)) for s in (1, -1)]
    basis = SimpleNamespace(rank=2, moves=moves)
    one, settled = oracle._single_cycle_table(wmap, basis, 1, 1)
    assert (one[(0, 1)], settled) == ((3, 0), False)
    two, settled = oracle._single_cycle_table(wmap, basis, 1, 2)
    assert (two[(0, 1)], settled) == ((2, 0), True)  # L = 2
    assert all(oracle._single_cycle_table(wmap, basis, 1, h) == (two, True) for h in (3, 4, 7))
    args = (wmap, basis, 1, 1, None, oracle._box_classes(2, 1), None, None)
    assert oracle._stable_tables(*args)[:2] == reference.stable_tables(*args)[:2] == (2, two)


def test_a_settled_table_needs_no_budget_at_the_next_truncation(genus2, genus2_basis, monkeypatch):
    # truncation 7 of the one-face genus-2 example is 15**4 = 50 625 states;
    # truncation 8 (83 521) would be over this budget, and is not needed
    monkeypatch.setattr(oracle, "MAX_COVER_STATES", 50_625)
    report = verify_min_equals_max(genus2, genus2_basis, 1)
    assert (report.ok, report.truncation, report.checked) == (True, 7, 81)
    monkeypatch.setattr(oracle, "MAX_COVER_STATES", 50_624)
    with pytest.raises(ResourceLimit, match="truncation 7 needs 50625 states"):
        verify_min_equals_max(genus2, genus2_basis, 1)


def _outcome(stable_tables, *args):
    try:
        return stable_tables(*args)
    except (BoxExceeded, UnstableTruncation, ResourceLimit) as error:
        return type(error), str(error)


def test_stable_tables_match_the_reference(g11, b11, g22, b22, genus2, genus2_basis, one_curve,
                                           monkeypatch):
    # reference.stable_tables builds the tables at h + 1 every time; the
    # level bound skips them only where they cannot differ
    four = fixtures.four_geodesic_example()
    w1, w2 = homology_basis(g22).cycles
    skew = set_user_basis(g22, (concat_closed_walks(g22.dual_graph, w1, w2, w2), w2))
    v1, v2 = homology_basis(g11).cycles
    skew11 = set_user_basis(g11, (concat_closed_walks(g11.dual_graph, v1, v1, v1, v2, v2),
                                  concat_closed_walks(g11.dual_graph, v1, v2)))
    cases = [(g11, b11), (g22, b22), (g22, skew), (g11, skew11), (four, homology_basis(four)),
             (one_curve, homology_basis(one_curve)), (genus2, genus2_basis)]
    maps = (random_wall_system(3 + seed % 4, random.Random(seed)) for seed in range(10**4))
    seeded = list(islice((m for m in maps if m.genus in (2, 3)), 24))
    assert sum(m.genus == 3 for m in seeded) >= 3
    # three genus-2 maps the bound does not settle at the default truncation
    seeded += [random_wall_system(3 + seed % 6, random.Random(seed)) for seed in (123, 129, 188)]
    cases += [(m, homology_basis(m)) for m in seeded]
    built = _count_tables(monkeypatch)
    seen = set()  # (genus, default truncation, h + 1 searched, outcome)
    for wmap, basis in cases:
        for radius in (1, 2) if basis.rank == 2 else (1,):
            box = oracle._box_classes(basis.rank, radius)
            default = oracle.default_truncation(basis, radius)
            for trunc in (radius, radius + 1, default):
                # verify's watched box, and one class with a cap at the start
                for watched, cap in ((box, None), ([box[-1]], trunc)):
                    args = (wmap, basis, radius, trunc, cap, watched,
                            lambda cs, t: f"{cs} not represented at {t}",
                            lambda cs, t: f"{cs} still improving at {t}")
                    built.clear()
                    got = _outcome(oracle._stable_tables, *args)
                    outcome = got[0] if len(got) == 2 else "tables"
                    seen.add((wmap.genus, trunc == default, len(built) > 1, outcome))
                    assert got == _outcome(reference.stable_tables, *args)
    # the default truncation settles with one table at genus 1 and 2; the
    # bound fails at small truncations, on the skewed bases, on some seeded
    # genus-2 maps at the default truncation, and at genus 3
    assert {(1, True, False, "tables"), (2, True, False, "tables"), (2, True, True, "tables"),
            (2, False, True, "tables"), (3, False, True, "tables")} <= seen
    assert (1, False, True, BoxExceeded) in seen
    assert (3, True, False, ResourceLimit) in seen  # truncation 9 is over the budget


def test_cover_table_over_budget_is_refused(monkeypatch):
    # genus three, one face: verify --box 1 starts at truncation 9, 19**6 states
    rng = random.Random(5)
    wmap = next(m for m in iter(lambda: random_wall_system(5, rng), None) if m.genus == 3)
    basis = homology_basis(wmap)
    assert len(wmap.faces) * 19**6 > oracle.MAX_COVER_STATES

    def refuse(*args, **kwargs):
        raise AssertionError("the cover table or the box was allocated")

    monkeypatch.setattr(np, "full", refuse)
    monkeypatch.setattr(oracle, "_box_classes", refuse)  # nor the classes of the box listed
    with pytest.raises(ResourceLimit, match="over the budget"):
        verify_min_equals_max(wmap, basis, 1)
    with pytest.raises(ResourceLimit, match="truncation 9 needs"):
        min_multicurve(wmap, basis, (1, 0, 0, 0, 0, 0))


def _random_map(vertices, genus, seed):
    rng = random.Random(seed)
    return next(m for m in iter(lambda: random_wall_system(vertices, rng), None) if m.genus == genus)


def test_min_single_cycle_over_budget_is_refused(monkeypatch):
    # the one-face genus-3 map above: truncation 9 needs 19**6 states
    wmap = _random_map(5, 3, 5)
    basis = homology_basis(wmap)

    def refuse(*args, **kwargs):
        raise AssertionError("the cover table was allocated")

    monkeypatch.setattr(np, "full", refuse)
    with pytest.raises(ResourceLimit, match=r"truncation 9 needs 47045881 states, over the budget"):
        min_single_cycle(wmap, basis, (1, 0, 0, 0, 0, 0), 9)


def _seeded_maps(count, max_genus):
    """The first ``count`` maps of genus <= max_genus, V = 2..5, drawn from seeds 0, 1, ..."""
    maps = (random_wall_system(2 + seed % 4, random.Random(seed)) for seed in range(10**4))
    return [m for m, _ in zip((m for m in maps if m.genus <= max_genus), range(count))]


def test_walks_match_the_dict_bfs_reference(g11, g22, b22, genus2, genus2_basis):
    # every class of the radius-1 box, every base face, truncation 3
    four = fixtures.four_geodesic_example()
    cases = [(g22, b22), (genus2, genus2_basis), (four, homology_basis(four))]
    cases += [(m, homology_basis(m)) for m in _seeded_maps(20, 2)]
    assert max(b.rank for _, b in cases) == 4 and len(cases) == 23
    for wmap, basis in cases:
        for c in oracle._box_classes(basis.rank, 1):
            walks = [oracle._walk(wmap, basis, c, 3, f0) for f0 in range(len(wmap.faces))]
            assert walks == [reference.bfs_walk(wmap, basis, c, 3, f0)
                             for f0 in range(len(wmap.faces))]
            # min_single_cycle keeps the first base face with the shortest walk
            best = min((w for w in walks if w is not None), key=len)
            assert min_single_cycle(wmap, basis, c, 3) == (len(best), best)
    # no walk of class (1, 1) fits the radius-1 box of this skewed basis
    w1, w2 = homology_basis(g11).cycles
    skew = set_user_basis(g11, (concat_closed_walks(g11.dual_graph, w1, w1, w2),
                                concat_closed_walks(g11.dual_graph, w1, w2)))
    for c in oracle._box_classes(2, 1):
        walks = [oracle._walk(g11, skew, c, 1, f0) for f0 in range(len(g11.faces))]
        assert walks == [reference.bfs_walk(g11, skew, c, 1, f0) for f0 in range(len(g11.faces))]
    assert oracle._walk(g11, skew, (1, 1), 1, 0) is None
    with pytest.raises(BoxExceeded, match=r"no closed walk of class \(1, 1\)"):
        min_single_cycle(g11, skew, (1, 1), 1)


def _dict_distances(basis, h, base_face):
    """Plain BFS over (face, class) states with every |class_i| <= h."""
    out: dict[int, list] = {}
    for f_from, f_to, delta, _ in basis.moves:
        out.setdefault(f_from, []).append((f_to, delta))
    seen = {(base_face, (0,) * basis.rank): 0}
    frontier = list(seen)
    level = 0
    while frontier:
        level += 1
        nxt = []
        for face, vec in frontier:
            for f_to, delta in out[face]:
                state = (f_to, tuple(map(operator.add, vec, delta)))
                if state not in seen and -h <= min(state[1]) and max(state[1]) <= h:
                    seen[state] = level
                    nxt.append(state)
        frontier = nxt
    return seen


def test_cover_distances_match_dict_bfs(g11, b11, g22, b22, genus2, genus2_basis):
    # the flat layout of _distances: face * box + sum((c_i + h) * side**i)
    four = fixtures.four_geodesic_example()
    auto = homology_basis(g22)
    w1, w2 = auto.cycles
    skew = set_user_basis(g22, (concat_closed_walks(g22.dual_graph, w1, w2, w2), w2))
    assert max(abs(d) for move in skew.moves for d in move[2]) >= 2
    cases = [(g11, b11), (g22, b22), (g22, skew), (four, homology_basis(four)),
             (genus2, genus2_basis)]
    cases += [(m, homology_basis(m)) for m in
              (_random_map(3, 2, 1), _random_map(4, 2, 1), _random_map(5, 3, 3))]
    for wmap, basis in cases:
        truncations = [1, 2, 3]
        if basis.rank <= 4:  # at genus 3 the verify --box 1 default is over the budget
            truncations.append(oracle.default_truncation(basis, 1))
        for h in truncations:
            side = 2 * h + 1
            box = side**basis.rank
            moves = oracle._cover_moves([m[:3] for m in basis.moves], h)
            for f0 in range(len(wmap.faces)):
                expected = np.full(len(wmap.faces) * box, -1, dtype=np.int32)
                for (face, vec), d in _dict_distances(basis, h, f0).items():
                    expected[face * box + sum((c + h) * side**i for i, c in enumerate(vec))] = d
                start = f0 * box + box // 2
                assert np.array_equal(oracle._distances(wmap, basis, h, start, moves), expected)


def _full_sweep_table(wmap, basis, radius, h):
    """The single-cycle table read off full _distances tables (no targets)."""
    side = 2 * h + 1
    box = side**basis.rank
    moves = oracle._cover_moves([m[:3] for m in basis.moves], h)
    dists = [oracle._distances(wmap, basis, h, f0 * box + box // 2, moves)
             for f0 in range(len(wmap.faces))]
    table = {}
    for c in oracle._box_classes(basis.rank, radius):
        lift = sum((ci + h) * side**i for i, ci in enumerate(c))
        found = [(int(d[f0 * box + lift]), f0) for f0, d in enumerate(dists)
                 if d[f0 * box + lift] >= 0]
        table[c] = min(found) if found else (math.inf, -1)
    return table


def test_cover_search_stops_early_and_exactly(g11, b11, g22, b22, genus2, genus2_basis):
    # the maps, bases and truncations of test_cover_distances_match_dict_bfs
    four = fixtures.four_geodesic_example()
    auto = homology_basis(g22)
    w1, w2 = auto.cycles
    skew = set_user_basis(g22, (concat_closed_walks(g22.dual_graph, w1, w2, w2), w2))
    cases = [(g11, b11), (g22, b22), (g22, skew), (four, homology_basis(four)),
             (genus2, genus2_basis)]
    cases += [(m, homology_basis(m)) for m in
              (_random_map(3, 2, 1), _random_map(4, 2, 1), _random_map(5, 3, 3))]
    for wmap, basis in cases:
        truncations = [1, 2, 3]
        if basis.rank <= 4:
            truncations.append(oracle.default_truncation(basis, 1))
        for h in truncations:
            assert oracle._single_cycle_table(wmap, basis, 1, h)[0] == \
                _full_sweep_table(wmap, basis, 1, h)
    # verify --box 1 on genus2 (one face) reads the 81 classes at truncation 7:
    # all are labelled by level 4, far short of the 50 625 states of the box
    h = oracle.default_truncation(genus2_basis, 1)
    side = 2 * h + 1
    lifts = np.array([sum((ci + h) * side**i for i, ci in enumerate(c))
                      for c in oracle._box_classes(genus2_basis.rank, 1)])
    moves = oracle._cover_moves([m[:3] for m in genus2_basis.moves], h)
    dist = oracle._distances(genus2, genus2_basis, h, side**4 // 2, moves, lifts)
    assert (h, len(genus2.faces), dist.size) == (7, 1, 50_625)
    assert (dist[lifts] >= 0).all()
    assert np.count_nonzero(dist >= 0) < dist.size
    assert dist.max() == 4


@pytest.mark.parametrize("seed, a, components, walks", [
    (17, (0, 2, -2, 0), [(0, 0, -2, 0), (0, 1, 0, 0), (0, 1, 0, 0)],
     [((8, -1), (8, -1)), ((0, 1),), ((0, 1),)]),
    (27, (-2, 0, -2, -2), [(-2, 2, -2, -2), (0, -2, 0, 0)],
     [((4, -1), (4, -1)), ((9, -1), (9, -1))]),
])
def test_composite_class_certificate(seed, a, components, walks):
    # a minimum reached only by a sum of closed walks: pins the DP's choice
    wmap = random_wall_system(6, random.Random(seed))
    basis = homology_basis(wmap)
    value, cert = min_multicurve(wmap, basis, a)
    assert value == 4
    assert cert.total_class == a
    assert cert.total_length == 4
    assert [c for _, c, _ in cert.cycles] == components
    assert [w for w, _, _ in cert.cycles] == walks
    assert [length for _, _, length in cert.cycles] == [len(w) for w in walks]


def test_cold_verify_does_not_import_numpy_ma(tmp_path):
    # np.unique imports numpy.ma on first use: about 30 ms on every cold request
    wall = tmp_path / "genus2.wall"
    wall.write_text(fixtures.genus2_example().canonical_text)
    script = textwrap.dedent(f"""
        import io, sys
        import numpy
        eager = "numpy.ma" in sys.modules
        from wallnorm import cli
        code = cli.main(["verify", {str(wall)!r}, "--box", "1"], out=io.StringIO())
        print(code, eager, "numpy.ma" in sys.modules)
    """)
    src = str(Path(oracle.__file__).resolve().parent.parent)
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                            env=dict(os.environ, PYTHONPATH=src))
    assert result.returncode == 0, result.stderr
    code, eager, loaded = result.stdout.split()
    if eager == "True":
        pytest.skip("this numpy imports numpy.ma with numpy itself")
    assert (code, loaded) == ("0", "False")
