import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import wallnorm

from wallnorm import (
    NotABasis,
    OpenWalk,
    boundary_matrices,
    class_of_walk,
    gamma_parity,
    homology_basis,
    parse_basis_file,
    format_basis_file,
    set_user_basis,
)
from wallnorm.fixtures import (
    four_geodesic_example, genus2_example, grid_basis_walks, grid_map, one_curve_example,
    random_wall_system,
)
from wallnorm.surface_map import reverse_walk

from conftest import random_closed_walk
from reference import snf_homology_basis


def test_d1_d2_composes_to_zero(g11, g22, g23, genus2, random_maps):
    for wmap in [g11, g22, g23, genus2] + random_maps:
        bnd = boundary_matrices(wmap)
        f, e, v = len(wmap.faces), wmap.edge_count, wmap.vertex_count
        for i in range(f):
            for j in range(v):
                assert sum(bnd.d1[i][k] * bnd.d2[k][j] for k in range(e)) == 0


def test_rank_is_twice_genus(g11, g22, genus2, random_maps):
    for wmap in [g11, g22, genus2] + random_maps:
        assert homology_basis(wmap).rank == 2 * wmap.genus


def test_basis_cycles_give_unit_vectors(g22, genus2, random_maps):
    for wmap in [g22, genus2] + random_maps:
        basis = homology_basis(wmap)
        for j, cycle in enumerate(basis.cycles):
            coords = class_of_walk(cycle, basis)
            assert coords == tuple(int(i == j) for i in range(basis.rank))


def test_face_boundary_has_zero_class(g22, genus2):
    for wmap in [g22, genus2]:
        basis = homology_basis(wmap)
        dual = wmap.dual_graph
        # boundary of the 2-cell at a vertex: kappa-weighted links, as a chain;
        # evaluate the cocycles on it directly
        bnd = boundary_matrices(wmap)
        for v in range(wmap.vertex_count):
            for w in basis.cocycles:
                assert sum(w[e] * bnd.d2[e][v] for e in range(wmap.edge_count)) == 0
        del dual


def test_basis_check_reads_each_2_cell_from_its_darts(g22, genus2, random_maps):
    # a cocycle raised by one on an edge is refused at the first 2-cell whose
    # d2 column it fails, as the column-by-column check refused it
    from wallnorm import InternalError
    from wallnorm.homology import HomologyBasis, _check_basis

    refused = 0
    for wmap in [g22, genus2] + random_maps:
        good = homology_basis(wmap)
        _check_basis(good)
        d2 = boundary_matrices(wmap).d2
        for e in range(wmap.edge_count):
            w = list(good.cocycles[-1])
            w[e] += 1
            first = next((v for v in range(wmap.vertex_count)
                          if sum(w[k] * d2[k][v] for k in range(wmap.edge_count))), None)
            if first is None:  # a loop edge: both of its darts sit on one 2-cell
                continue
            bad = HomologyBasis(wmap, good.cycles, good.cocycles[:-1] + (tuple(w),))
            message = f"^cocycle {good.rank - 1} does not vanish on 2-cell {first}$"
            with pytest.raises(InternalError, match=message):
                _check_basis(bad)
            refused += 1
    assert refused > 20


def test_concatenation_is_additive(g22, b22):
    b1, b2 = b22.cycles
    # both standard cycles are based at the same face, so they concatenate
    combined = b1 + b2
    assert class_of_walk(combined, b22) == (1, 1)


def test_class_invariant_under_rotation_and_backtrack(g22, genus2, random_maps):
    rng = random.Random(11)
    for wmap in [g22, genus2] + random_maps[:4]:
        basis = homology_basis(wmap)
        dual = wmap.dual_graph
        for _ in range(20):
            walk = random_closed_walk(wmap, rng)
            coords = class_of_walk(walk, basis)
            if walk:
                k = rng.randrange(len(walk))
                rotated = walk[k:] + walk[:k]
                assert class_of_walk(rotated, basis) == coords
            # insert a back-and-forth crossing at the start face
            if walk:
                face = dual.crossing_ends(*walk[0])[0]
            else:
                face = 0
            edge, direction, _ = dual.moves[face][rng.randrange(dual.degree(face))]
            padded = ((edge, direction), (edge, -direction)) + walk
            assert class_of_walk(padded, basis) == coords


def test_open_walk_rejected(g22, b22):
    with pytest.raises(OpenWalk):
        class_of_walk(((0, 1),), b22)  # single crossing cannot close on G(2,2)
    with pytest.raises(OpenWalk):
        class_of_walk(((0, 1), (0, 1)), b22)  # does not chain


def test_gamma_parity_grids(g11, b11, g22, b22, g23, b23):
    assert gamma_parity(g11, b11) == (1, 1)
    assert gamma_parity(g22, b22) == (0, 0)
    # oracle by hand: the horizontal cycle crosses the 3 vertical circles,
    # the vertical cycle crosses the 2 horizontal circles
    assert gamma_parity(g23, b23) == (1, 0)


def test_parity_well_defined_on_classes(g22, g23, genus2):
    rng = random.Random(23)
    for wmap in (g22, g23, genus2):
        basis = homology_basis(wmap)
        parity = gamma_parity(wmap, basis)
        for _ in range(30):
            walk = random_closed_walk(wmap, rng)
            coords = class_of_walk(walk, basis)
            expected = sum(c * p for c, p in zip(coords, parity)) % 2
            assert len(walk) % 2 == expected


# auto-basis signatures of the spanning tree and Smith normal form; a change
# to either changes every `# basis auto <signature>` header
GRID_SIGNATURES = {
    (1, 1): "4ca3171cea74", (1, 2): "69306bb8c488", (1, 3): "438ebfa26b89",
    (1, 4): "20b7ead5b13e", (1, 5): "0c222914794e", (2, 2): "de361dec91c5",
    (2, 3): "cb431c1b6449", (2, 4): "1c221dd9c33d", (2, 5): "b37cf82f6f4b",
    (3, 3): "160989d2bb58", (3, 4): "8987b518c4f1", (3, 5): "7c1f0fd5d761",
    (4, 4): "bd2fd645fc96", (4, 5): "cb4108f5be0f", (5, 5): "886f0b4fa628",
}
# seed -> signature for the first twenty seeds whose map has genus 1 to 4
RANDOM_SIGNATURES = {
    0: "eb7bdc3281f8", 1: "17ce4747a417", 2: "705a1eb1f861", 3: "d04d41818c17",
    4: "801a8b5f9e8a", 6: "22f0b3c126bb", 7: "ad76bb4065a5", 8: "d831b80afe59",
    9: "7c2a1cc64f66", 10: "8705f7efa9c1", 11: "14a7fbc48074", 12: "a8be121b03f9",
    13: "a7bf0354a624", 14: "83c1b05408a1", 15: "4eba9d85ac77", 16: "ab1111f81473",
    18: "c204ea539bfb", 20: "99ecb59a3281", 21: "8721544d88e2", 22: "42822be021ab",
}


def _random_map(seed):
    rng = random.Random(seed)
    return random_wall_system(rng.randint(2, 12), rng)


def test_auto_basis_signatures_are_pinned():
    for (m, n), signature in GRID_SIGNATURES.items():
        assert homology_basis(grid_map(m, n)).signature == signature, (m, n)
    skipped = [s for s in range(max(RANDOM_SIGNATURES)) if s not in RANDOM_SIGNATURES]
    assert all(not 1 <= _random_map(s).genus <= 4 for s in skipped)
    for seed, signature in RANDOM_SIGNATURES.items():
        wmap = _random_map(seed)
        assert 1 <= wmap.genus <= 4
        assert homology_basis(wmap).signature == signature, seed


def test_tree_cotree_basis_matches_smith_normal_form():
    # the tree-cotree basis is the Smith normal form basis, generator order
    # included: G(m, n) (m or n = 1 gives loop edges), the named fixtures,
    # and seeded random maps of genus 1 to 7
    maps = [grid_map(m, n) for m in range(1, 7) for n in range(1, 7)]
    maps += [four_geodesic_example(), genus2_example(), one_curve_example()]
    rng = random.Random(20031)
    maps += [random_wall_system(rng.randint(1, 16), rng) for _ in range(640)]
    assert {wmap.genus for wmap in maps} >= set(range(1, 8))
    for k, wmap in enumerate(maps):
        new, old = homology_basis(wmap), snf_homology_basis(wmap)
        assert new.cycles == old.cycles, k
        assert new.cocycles == old.cocycles, k
        assert new.signature == old.signature, k


def test_set_user_basis_identity(g22, genus2):
    maps = [g22, genus2, four_geodesic_example()] + [_random_map(s) for s in RANDOM_SIGNATURES]
    for wmap in maps:
        auto = homology_basis(wmap)
        for cycle in auto.cycles:  # a closed walk from face 0
            faces = wmap.dual_graph.walk_faces(cycle)
            assert faces[0] == faces[-1] == 0
        again = set_user_basis(wmap, auto.cycles)
        assert again.cocycles == auto.cocycles
        assert again.label == "user"


def test_set_user_basis_rejects_singular(g22):
    auto = homology_basis(g22)
    with pytest.raises(NotABasis):
        set_user_basis(g22, (auto.cycles[0], auto.cycles[0]))
    with pytest.raises(NotABasis):
        set_user_basis(g22, (auto.cycles[0],))


def test_grid_walks_are_a_basis(g22):
    # oracle: the pairing matrix against the computed basis has determinant +-1
    auto = homology_basis(g22)
    walks = grid_basis_walks(2, 2)
    columns = [class_of_walk(w, auto) for w in walks]
    det = columns[0][0] * columns[1][1] - columns[0][1] * columns[1][0]
    assert det in (1, -1)
    user = set_user_basis(g22, walks)
    for j, cycle in enumerate(user.cycles):
        assert class_of_walk(cycle, user) == tuple(int(i == j) for i in range(2))


def test_user_basis_on_all_grids():
    for m, n in [(1, 1), (1, 2), (2, 3), (3, 3)]:
        wmap = grid_map(m, n)
        user = set_user_basis(wmap, grid_basis_walks(m, n))
        assert user.rank == 2


def test_reverse_walk_negates_class(g22, genus2):
    rng = random.Random(5)
    for wmap in (g22, genus2):
        basis = homology_basis(wmap)
        for _ in range(10):
            walk = random_closed_walk(wmap, rng)
            coords = class_of_walk(walk, basis)
            negated = class_of_walk(reverse_walk(walk), basis)
            assert negated == tuple(-c for c in coords)


def test_basis_file_round_trip(g23):
    walks = grid_basis_walks(2, 3)
    text = format_basis_file(list(walks))
    assert parse_basis_file(text) == list(walks)


def test_parse_basis_file_errors():
    from wallnorm import MalformedInput

    with pytest.raises(MalformedInput):
        parse_basis_file("loop 0: 1+\n")
    with pytest.raises(MalformedInput):
        parse_basis_file("cycle 0: 1*\n")
    with pytest.raises(MalformedInput):
        parse_basis_file("cycle 0: 1+\ncycle 0: 2-\n")
    with pytest.raises(MalformedInput):
        parse_basis_file("cycle 1: 1+\n")


def test_concat_closed_walks_trivia(g22):
    from wallnorm import concat_closed_walks

    assert concat_closed_walks(g22.dual_graph) == ()
    assert concat_closed_walks(g22.dual_graph, (), ()) == ()


def test_invariant_checks_survive_optimize():
    """A swapped cocycle pair fails the basis check even under python -O."""
    script = textwrap.dedent("""
        from wallnorm import InternalError
        from wallnorm.fixtures import grid_basis, grid_map
        from wallnorm.homology import HomologyBasis, _check_basis

        assert False, "asserts must be stripped under -O"
        wmap = grid_map(1, 1)
        good = grid_basis(wmap, 1, 1)
        bad = HomologyBasis(wmap, good.cycles, good.cocycles[::-1], label="user")
        try:
            _check_basis(bad)
        except InternalError as exc:
            print("raised:", exc)
    """)
    src = str(Path(wallnorm.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "raised: basis pairing is not the identity\n"
