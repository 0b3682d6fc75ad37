import random
from itertools import product

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
from wallnorm import oracle
from wallnorm.errors import BoxExceeded, ResourceLimit
from wallnorm.fixtures import grid_basis, grid_map, random_wall_system
from wallnorm.surface_map import concat_closed_walks


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
    # fabricate values that keep improving as the truncation grows, to drive
    # the control flow into the instability escape hatch
    from wallnorm import oracle as oracle_module
    from wallnorm.errors import UnstableTruncation

    def fake_table(wmap, basis, radius, trunc):
        classes = oracle_module._box_classes(basis.rank, radius)
        return {c: (100 - trunc, 0) for c in classes}

    monkeypatch.setattr(oracle_module, "_single_cycle_table", fake_table)
    with pytest.raises(UnstableTruncation):
        min_multicurve(g22, b22, (1, 0), h=4, max_truncation=8)


def test_cover_table_over_budget_is_refused(monkeypatch):
    # genus three, one face: verify --box 1 starts at truncation 9, 19**6 states
    rng = random.Random(5)
    wmap = next(m for m in iter(lambda: random_wall_system(5, rng), None) if m.genus == 3)
    basis = homology_basis(wmap)
    assert len(wmap.faces) * 19**6 > oracle.MAX_COVER_STATES

    def refuse(*args, **kwargs):
        raise AssertionError("the cover table was allocated")

    monkeypatch.setattr(oracle.np, "full", refuse)
    with pytest.raises(ResourceLimit, match="over the budget"):
        verify_min_equals_max(wmap, basis, 1)
    with pytest.raises(ResourceLimit, match="truncation 9 needs"):
        min_multicurve(wmap, basis, (1, 0, 0, 0, 0, 0))
