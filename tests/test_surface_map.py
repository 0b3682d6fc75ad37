import itertools
import os
import random
import re
import subprocess
import sys
import textwrap
from collections import Counter
from functools import cache, partial
from pathlib import Path

import pytest

import reference
import wallnorm
from wallnorm import (
    BadDegree,
    BadEuler,
    DartMultiplicity,
    MalformedInput,
    WallSystemMap,
    parse_basis_file,
    parse_wall_system,
)
from wallnorm.coorient import Coorientation
from wallnorm.fixtures import (
    four_geodesic_example, genus2_example, grid_basis_text, grid_map, grid_text,
    random_wall_system,
)


def test_parse_g11(g11):
    assert g11.vertex_count == 1
    assert g11.edge_count == 2
    assert g11.genus == 1


def test_parse_g22(g22):
    assert g22.vertex_count == 4
    assert g22.edge_count == 8


def test_bad_degree_rejected():
    text = "vertices 1\nvertex 0: 0 1 2\nedge 0: 0 2\nedge 1: 1 3\n"
    with pytest.raises(BadDegree):
        parse_wall_system(text)


def test_dart_repeated_rejected():
    text = "vertices 1\nvertex 0: 0 1 2 2\nedge 0: 0 2\nedge 1: 1 3\n"
    with pytest.raises(DartMultiplicity):
        parse_wall_system(text)


def test_dart_out_of_range_rejected():
    text = "vertices 1\nvertex 0: 0 1 2 9\nedge 0: 0 2\nedge 1: 1 3\n"
    with pytest.raises(MalformedInput):
        parse_wall_system(text)


def test_sphere_rejected():
    # figure eight with adjacent petals: one vertex, three faces, chi = 2
    text = "vertices 1\nvertex 0: 0 1 2 3\nedge 0: 0 1\nedge 1: 2 3\n"
    with pytest.raises(BadEuler):
        parse_wall_system(text)


def test_garbage_rejected():
    with pytest.raises(MalformedInput):
        parse_wall_system("verts 1\n")
    with pytest.raises(MalformedInput):
        parse_wall_system("vertices 1\nvertex 0: a b c d\n")
    with pytest.raises(MalformedInput):
        parse_wall_system("vertices 1\nvertex 0: 0 1 2 3\nedge 0: 0 2\n")


# a header or index line with the wrong number of integers, and the line it names
MISCOUNTED_LINES = [
    ("vertices\n", "line 1: expected one vertex count, got ''"),
    ("vertices 1 2\n", "line 1: expected one vertex count, got '1 2'"),
    ("vertices 1\nvertex 0 1: 0 1 2 3\n", "line 2: expected one vertex index, got '0 1'"),
]


@pytest.mark.parametrize("text, message", MISCOUNTED_LINES)
def test_miscounted_integers_are_malformed(text, message):
    with pytest.raises(MalformedInput) as info:
        parse_wall_system(text)
    assert str(info.value) == message


def test_huge_vertex_header_is_refused_before_allocating():
    # in a child capped at 1 GB of address space, so that a parser which
    # does allocate the 10**9 indices fails fast instead of filling memory
    script = textwrap.dedent("""
        import resource, tracemalloc
        resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))
        from wallnorm import MalformedInput, parse_wall_system
        tracemalloc.start()
        try:
            parse_wall_system("vertices 1000000000\\n")
        except MalformedInput as exc:
            print(exc)
        print(tracemalloc.get_traced_memory()[1])
    """)
    src = str(Path(wallnorm.__file__).resolve().parent.parent)
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                            env=dict(os.environ, PYTHONPATH=src))
    assert result.returncode == 0, result.stderr
    message, peak = result.stdout.splitlines()
    assert message == "vertex indices must be exactly 0..999999999"
    assert int(peak) < 2**20


def test_disconnected_rejected():
    # two disjoint copies of G(1,1)
    text = (
        "vertices 2\n"
        "vertex 0: 0 1 2 3\nvertex 1: 4 5 6 7\n"
        "edge 0: 0 2\nedge 1: 1 3\nedge 2: 4 6\nedge 3: 5 7\n"
    )
    with pytest.raises(MalformedInput):
        parse_wall_system(text)


def test_faces_g11(g11):
    assert len(g11.faces) == 1
    # four darts in total, so the single disc face has a 4-dart boundary orbit
    assert len(g11.faces[0]) == 4


def test_faces_g22(g22):
    assert len(g22.faces) == 4
    assert all(len(f) == 4 for f in g22.faces)


@pytest.mark.parametrize("m,n", [(2, 3), (3, 2), (3, 3), (1, 2)])
def test_faces_grid_count_oracle(m, n):
    # oracle: the grid decomposes the torus into m*n square cells
    assert len(grid_map(m, n).faces) == m * n


@pytest.mark.parametrize("m,n", [(1, 1), (2, 2), (3, 3)])
def test_grid_genus_one(m, n):
    assert grid_map(m, n).genus == 1


def test_curves_counts(g11, g22):
    assert len(g11.curves) == 2
    assert len(g22.curves) == 4


def test_one_curve_fixture_by_orbit_trace(one_curve):
    """Oracle: re-trace straight-ahead orbits directly from sigma and alpha."""
    wmap = one_curve
    sigma, alpha = wmap.sigma, wmap.alpha
    succ = {d: sigma[sigma[alpha[d]]] for d in range(wmap.dart_count)}
    seen = set()
    orbits = []
    for d in range(wmap.dart_count):
        if d in seen:
            continue
        orbit = []
        x = d
        while x not in seen:
            seen.add(x)
            orbit.append(x)
            x = succ[x]
        orbits.append(frozenset(orbit))
    # orbits pair up under reversal into unoriented curves
    curves = set()
    for orbit in orbits:
        partner = next(o for o in orbits if alpha[min(orbit)] in o)
        curves.add(frozenset(orbit | partner))
    assert len(curves) == 1
    assert len(wmap.curves) == 1
    assert wmap.curves[0].support == next(iter(curves))


def test_dual_graph_g11(g11):
    dual = g11.dual_graph
    assert dual.node_count == 1
    assert all(right == left == 0 for right, left in dual.ends)
    assert len(dual.ends) == 2


def test_dual_graph_g22(g22):
    dual = g22.dual_graph
    assert dual.node_count == 4
    assert len(dual.ends) == 8
    assert all(dual.degree(v) == 4 for v in range(4))


def test_shortest_path_matches_the_early_stopping_bfs():
    for wmap in (grid_map(2, 3), four_geodesic_example(), genus2_example()):
        dual = wmap.dual_graph
        for src, dst in itertools.product(range(dual.node_count), repeat=2):
            path = dual.shortest_path(src, dst)
            assert path == reference.shortest_path(dual, src, dst), (wmap.digest, src, dst)
            faces = dual.walk_faces(path)
            assert not path or (faces[0], faces[-1]) == (src, dst)


def test_permutation_invariants(g22, genus2, random_maps):
    for wmap in [g22, genus2] + random_maps:
        n = wmap.dart_count
        sigma, alpha = wmap.sigma, wmap.alpha
        for d in range(n):
            assert alpha[alpha[d]] == d
            x = d
            for _ in range(4):
                x = sigma[x]
            assert x == d
            assert sigma[sigma[d]] != d


def test_orbits_partition_darts(g22, genus2, one_curve, random_maps):
    for wmap in [g22, genus2, one_curve] + random_maps:
        darts = set(range(wmap.dart_count))
        face_darts = [d for f in wmap.faces for d in f.darts]
        assert sorted(face_darts) == sorted(darts)
        curve_darts = [d for c in wmap.curves for d in c.support]
        assert sorted(curve_darts) == sorted(darts)
        assert all(len(c.support) % 2 == 0 for c in wmap.curves)


def test_euler_relation(random_maps):
    for wmap in random_maps:
        assert wmap.edge_count == 2 * wmap.vertex_count
        chi = wmap.vertex_count - wmap.edge_count + len(wmap.faces)
        assert chi == 2 - 2 * wmap.genus
        assert chi <= 0 and chi % 2 == 0


def test_serialization_round_trip(g11, g22, g23, genus2, random_maps):
    for wmap in [g11, g22, g23, genus2] + random_maps:
        text = wmap.canonical_text
        again = parse_wall_system(text)
        assert again == wmap
        assert again.canonical_text == text and again.digest == wmap.digest


def test_comments_and_blank_lines_ignored():
    text = grid_text(2, 2)
    noisy = "# header\n\n" + text.replace("edge 0:", "edge 0:") + "# trailing\n"
    assert parse_wall_system(noisy) == parse_wall_system(text)


def test_random_generator_is_deterministic():
    a = random_wall_system(3, random.Random(5))
    b = random_wall_system(3, random.Random(5))
    assert a == b


# -- the one record reader against the three parsers it replaced ---------------

HUGE = 10**30


def _outcome(parse, text):
    """What a parser makes of a text: its value, or the exception it raises."""
    try:
        return parse(text), None
    except Exception as exc:  # the reference parsers may raise more than MalformedInput
        return None, exc


def _mutations(text, rng):
    """Single-line mutations of a record file, each line in turn."""
    lines = text.splitlines()
    for k, line in enumerate(lines):
        tokens = line.split()
        t = rng.randrange(len(tokens))
        for new in ([], [line, line], [line.replace(":", "", 1)],
                    [" ".join(tokens[:t] + ["x"] + tokens[t + 1:])], [f"{line} {tokens[-1]}"],
                    [re.sub(r"-?\d+", str(HUGE), line, count=1)]):
            yield "\n".join(lines[:k] + new + lines[k + 1:]) + "\n"
        swapped = list(lines)
        j = rng.randrange(len(lines))
        swapped[k], swapped[j] = swapped[j], swapped[k]
        yield "\n".join(swapped) + "\n"


@cache
def _record_files():
    """Wall, basis and coorientation texts: fixtures, seeded maps and their files."""
    from wallnorm import enumerate_eulerian, format_basis_file, homology_basis
    from wallnorm.fixtures import four_geodesic_example, genus2_example, one_curve_example

    rng = random.Random(22)
    maps = [grid_map(m, n) for m, n in ((1, 1), (2, 2), (2, 3), (3, 3))]
    maps += [four_geodesic_example(), genus2_example(), one_curve_example()]
    maps += [random_wall_system(2 + k % 7, rng) for k in range(40)]
    walls = [wmap.canonical_text for wmap in maps]
    bases = [grid_basis_text(m, n) for m, n in ((1, 1), (2, 2), (2, 3), (3, 3))]
    bases += [format_basis_file(homology_basis(wmap).cycles) for wmap in maps[4:12]]
    coors = [(coor.to_text(), wmap.edge_count) for wmap in maps[:8]
             for coor in enumerate_eulerian(wmap).items[:2]]
    return walls, bases, coors


def _differential_cases():
    walls, bases, coors = _record_files()
    rng = random.Random(23)
    for text in walls:
        for case in [text, *_mutations(text, rng)]:
            yield case, parse_wall_system, reference.parse_wall_system
    for text in bases:
        for case in [text, *_mutations(text, rng)]:
            yield case, parse_basis_file, reference.parse_basis_file
    for text, edge_count in coors:
        for case in [text, *_mutations(text, rng)]:
            yield (case, partial(Coorientation.from_text, edge_count=edge_count),
                   partial(reference.coorientation_from_text, edge_count=edge_count))


def test_record_reader_matches_the_reference_parsers():
    seen = set()
    for text, parse, parse_reference in _differential_cases():
        got, error = _outcome(parse, text)
        want, want_error = _outcome(parse_reference, text)
        if isinstance(want_error, OverflowError):
            # a header too large for range() crashed the old parsers
            assert text.startswith(f"vertices {HUGE}\n") and isinstance(error, MalformedInput)
            seen.add("overflow")
        elif want_error is None:
            assert error is None and got == want, text
            seen.add("parsed")
        else:
            assert type(error) is type(want_error), text
            if parse is parse_wall_system:
                assert str(error) == str(want_error), text
            seen.add(type(error))
    assert seen == {"overflow", "parsed", MalformedInput, BadDegree}


# Inputs the old parsers read with int(), which the one reader refuses: an
# underscore separator, a non-ASCII digit, a non-ASCII space between fields.
COOR_2 = partial(Coorientation.from_text, edge_count=2), partial(
    reference.coorientation_from_text, edge_count=2)
LOOSE_INTEGERS = [
    (parse_wall_system, reference.parse_wall_system,
     "vertices 1\nvertex 0: 0 1 2 3\nedge 0_1: 1 3\nedge 0: 0 2\n"),
    (parse_wall_system, reference.parse_wall_system,
     "vertices 1\nvertex 0: 0 1 2 \u0663\nedge 0: 0 2\nedge 1: 1 3\n"),
    (parse_wall_system, reference.parse_wall_system,
     "vertices 1\nvertex 0:\u00a00 1 2 3\nedge 0: 0 2\nedge 1: 1 3\n"),
    (parse_basis_file, reference.parse_basis_file, "cycle 0: 1_0+\n"),
    (*COOR_2, "edge 0_0: +\nedge 1: -\n"),
]


@pytest.mark.parametrize("parse, parse_reference, text", LOOSE_INTEGERS)
def test_only_ascii_decimal_integers_are_read(parse, parse_reference, text):
    assert _outcome(parse_reference, text)[1] is None
    with pytest.raises(MalformedInput, match="non-ASCII character or '_'"):
        parse(text)


def test_huge_header_is_malformed():
    with pytest.raises(MalformedInput, match=f"vertex indices must be exactly 0..{HUGE - 1}$"):
        parse_wall_system(f"vertices {HUGE}\n")


@pytest.mark.parametrize("vertex_count, rotations, edges, error, message", [
    (0, [], [], MalformedInput, "a wall system needs at least one vertex (V >= 1)"),
    (2, [(0, 1, 2, 3)], [], MalformedInput, "expected 2 vertex rotations, got 1"),
    (1, [(0, 1, 2)], [], BadDegree, "vertex 0 lists 3 darts; every vertex has degree 4"),
    (1, [(0, 1, 2, 3)], [(0, 2)], MalformedInput, "expected E = 2V = 2 edges, got 1"),
    (1, [(0, 1, 2, 3)], [(0, 1, 2), (3,)], MalformedInput, "edge 0 must pair exactly two darts"),
])
def test_constructor_refusals(vertex_count, rotations, edges, error, message):
    with pytest.raises(error) as info:
        WallSystemMap(vertex_count, rotations, edges)
    assert type(info.value) is error and str(info.value) == message


def _matchings(darts):
    """Every way to pair the darts, each pair ascending, pairs in order of their first dart."""
    if not darts:
        yield []
        return
    first, rest = darts[0], darts[1:]
    for k, other in enumerate(rest):
        for tail in _matchings(rest[:k] + rest[k + 1:]):
            yield [(first, other), *tail]


def test_every_accepted_small_map_has_even_euler_characteristic():
    """No map the constructor accepts has an odd chi, so it needs no refusal for one.

    V = 1: every rotation and every edge list.  V = 2: every matching under
    every pair of rotation orders; relabeling the darts brings any V = 2 map
    to vertex darts 0..3 and 4..7, and the faces ignore edge order and
    direction.
    """
    cases = [(1, [rot], [(a, b) if up else (b, a), (c, d) if down else (d, c)][::step])
             for rot in itertools.permutations(range(4))
             for (a, b), (c, d) in _matchings([0, 1, 2, 3])
             for up, down, step in itertools.product((True, False), (True, False), (1, -1))]
    cases += [(2, [(0, *r0), (4, *r1)], edges)
              for r0 in itertools.permutations((1, 2, 3))
              for r1 in itertools.permutations((5, 6, 7))
              for edges in _matchings(list(range(8)))]
    assert len(cases) == 24 * 24 + 36 * 105
    accepted = Counter()
    for vertex_count, rotations, edges in cases:
        try:
            wmap = WallSystemMap(vertex_count, rotations, edges)
        except BadEuler as error:  # genus 0
            assert str(error).startswith("Euler characteristic 2 > 0"), error
            continue
        except MalformedInput as error:
            assert "not connected" in str(error), error
            continue
        chi = wmap.euler_characteristic
        assert chi % 2 == 0 and chi == 2 - 2 * wmap.genus, (rotations, edges)
        accepted[vertex_count] += 1
    assert accepted[1] and accepted[2]


def test_constructor_reads_integers_only():
    with pytest.raises(MalformedInput):
        WallSystemMap(1.9, [(0, 1, 2, 3)], [(0, 2), (1, 3)])
    with pytest.raises(MalformedInput):
        WallSystemMap(1, [(0, 1, 2, 3.0)], [(0, 2), (1, 3)])
    bools = WallSystemMap(1, [(False, True, 2, 3)], [(0, 2), (1, 3)])
    assert bools == grid_map(1, 1) and bools.digest == grid_map(1, 1).digest
    assert all(type(d) is int for rot in bools.rotations for d in rot)
    assert parse_wall_system(bools.canonical_text) == bools
