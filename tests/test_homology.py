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
from wallnorm.fixtures import grid_basis_walks, grid_map
from wallnorm.surface_map import reverse_walk

from conftest import random_closed_walk


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


def test_set_user_basis_identity(g22):
    auto = homology_basis(g22)
    again = set_user_basis(g22, auto.cycles)
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
        from wallnorm.homology import HomologyBasis, _check_basis, boundary_matrices

        assert False, "asserts must be stripped under -O"
        wmap = grid_map(1, 1)
        good = grid_basis(wmap, 1, 1)
        bad = HomologyBasis(wmap, good.cycles, good.cocycles[::-1], label="user")
        try:
            _check_basis(bad, boundary_matrices(wmap))
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
