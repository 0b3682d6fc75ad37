"""Reference implementations the tests compare the package against.

They are the plain forms of computations the package does faster, kept
only to check that the faster form gives identical results.
"""

from __future__ import annotations

from wallnorm.homology import Coords, HomologyBasis
from wallnorm.surface_map import Walk, WallSystemMap


def dp_tables(single, radius):
    """Fixpoint of M(c) = min(single(c), M(c1) + M(c - c1)) over the box.

    The tuple-keyed Gauss-Seidel sweep that ``oracle._dp_tables`` must
    reproduce exactly: the same values and the same decomposition choices.
    """
    classes = sorted(single)
    rank = len(classes[0])
    zero = (0,) * rank
    m = {c: single[c][0] for c in classes}
    m[zero] = 0
    choice = {}
    changed = True
    while changed:
        changed = False
        order = sorted(classes, key=lambda c: m[c])
        for c in classes:
            bound = m[c]
            for c1 in order:
                v1 = m[c1]
                if v1 + 1 >= bound:
                    break
                if c1 == zero:
                    continue
                c2 = tuple(a - b for a, b in zip(c, c1))
                if any(abs(x) > radius for x in c2):
                    continue
                v2 = m[c2]
                if v1 + v2 < bound:
                    bound = v1 + v2
                    m[c] = bound
                    choice[c] = (c1, c2)
                    changed = True
    return m, choice


def bfs_walk(
    wmap: WallSystemMap, basis: HomologyBasis, target: Coords, h: int, base_face: int
) -> Walk | None:
    """Shortest closed walk of the target class based at base_face (parents BFS)."""
    rank = basis.rank
    moves = basis.moves
    start = (base_face, (0,) * rank)
    goal = (base_face, target)
    if start == goal:
        return ()
    parents: dict[tuple[int, Coords], tuple[tuple[int, Coords], tuple[int, int]]] = {
        start: (start, (0, 0))
    }
    frontier = [start]
    while frontier:
        nxt = []
        for state in frontier:
            face, vec = state
            for f_from, f_to, delta, crossing in moves:
                if f_from != face:
                    continue
                new_vec = tuple(a + b for a, b in zip(vec, delta))
                if any(abs(x) > h for x in new_vec):
                    continue
                new_state = (f_to, new_vec)
                if new_state in parents:
                    continue
                parents[new_state] = (state, crossing)
                if new_state == goal:
                    crossings = []
                    here = new_state
                    while here != start:
                        prev, move = parents[here]
                        crossings.append(move)
                        here = prev
                    return tuple(reversed(crossings))
                nxt.append(new_state)
        frontier = nxt
    return None
