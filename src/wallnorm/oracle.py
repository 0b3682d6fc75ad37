"""Independent brute-force computation of the intersection norm.

The minimum side of the norm is computed directly: shortest closed dual
walks of a prescribed class are found by breadth-first search in the
maximal abelian cover (states are a face plus an integer class vector,
truncated to a box), and minima over multi-curves by a decomposition
dynamic program over the class box.  One search, ``_distances``, builds
every table.  Each table stops at the first level that labels every class
of the radius box at its base face: a BFS level is final when first
assigned, so the tables equal those of a full sweep of the truncation box.
A witness walk is read back from a reverse search out of its end state:
stepping forward by the first move, in ``basis.moves`` order, that gets
one step closer gives the first shortest walk in that order.

Truncation is guarded by a level bound.  A move changes a class
coordinate by at most r, the largest |delta_i| of ``basis.moves``, so the
k-th state of a walk from the box centre lies within k * r of it.  Say
every search of a table labels its targets by level L.  A larger
truncation could only beat one of those distances with a walk shorter
than L, whose inner states lie within (L - 2) * r of the centre.  When
(L - 2) * r <= h that walk fits the box and was found already, so every
larger truncation gives the same table, and it is accepted as it is.
Otherwise the tables are built again at h + 1, a value is only accepted
when that does not change it, and the truncation doubles while it does.

This module never consults the Eulerian maximization; the two sides meet
only in ``verify_min_equals_max``.
"""

from __future__ import annotations

import math
from itertools import product
from operator import index
from typing import Callable, NamedTuple, Sequence

from .errors import BoxExceeded, InternalError, ResourceLimit, UnstableTruncation
from .homology import Coords, HomologyBasis, _class_coords
from .surface_map import Walk, WallSystemMap
from . import normball

# Largest cover table (faces times box lifts) _distances allocates, int32 each.
MAX_COVER_STATES = 10_000_000


class MultiCurveCertificate(NamedTuple):
    """A witness decomposition: closed dual walks with classes and lengths."""

    cycles: tuple[tuple[Walk, Coords, int], ...]
    total_length: int
    total_class: Coords


class VerifyReport(NamedTuple):
    """Outcome of comparing the oracle against the max formula over a box."""

    box_radius: int
    truncation: int
    checked: int
    discrepancies: tuple[tuple[Coords, int, int], ...]

    @property
    def ok(self) -> bool:
        return not self.discrepancies


def _cover_states(wmap: WallSystemMap, basis: HomologyBasis, h: int) -> int:
    """States of the cover truncated at h; ResourceLimit above MAX_COVER_STATES."""
    total = len(wmap.faces) * (2 * h + 1) ** basis.rank
    if total > MAX_COVER_STATES:
        raise ResourceLimit(
            f"cover table at truncation {h} needs {total} states, "
            f"over the budget of {MAX_COVER_STATES}"
        )
    return total


def _cover_moves(
    moves: Sequence[tuple[int, int, Coords]], h: int
) -> dict[int, list[tuple[int, tuple]]]:
    """From face -> its moves at truncation h: (flat offset, nonzero (coordinate, step) pairs).

    ``moves`` are the triples (from face, to face, class delta).
    """
    side = 2 * h + 1
    by_face: dict[int, list[tuple[int, tuple]]] = {}
    for f_from, f_to, delta in moves:
        flat = (f_to - f_from) * side**len(delta) + sum(d * side**i for i, d in enumerate(delta))
        steps = tuple((i, d) for i, d in enumerate(delta) if d)
        by_face.setdefault(f_from, []).append((flat, steps))
    return by_face


def _reach(moves: dict) -> int:
    """r: the largest step |delta_i| of any move of a ``_cover_moves`` table."""
    return max((abs(d) for face_moves in moves.values() for _, steps in face_moves
                for _, d in steps), default=0)


def _lift(h: int, face: int, c: Coords) -> int:
    """Flat index of the cover state (face, c) at truncation h."""
    side = 2 * h + 1
    return face * side**len(c) + sum((ci + h) * side**i for i, ci in enumerate(c))


def _distances(
    wmap: WallSystemMap, basis: HomologyBasis, h: int, start: int, moves: dict,
    targets: np.ndarray | None = None,
) -> np.ndarray:
    """BFS distances from the state ``start`` over the box |h_i| <= h (flat layout).

    A state gets its level as soon as a move discovers it, so later moves of
    the same level skip it and a frontier needs no deduplication.  ``moves``
    is a ``_cover_moves`` table, shared across starts.  With ``targets``
    (flat state indices) the search stops after the first level that leaves
    every target labelled: those distances are final, and states the search
    has not reached yet stay -1.  Without it the whole box is swept.  With
    the start o steps from the box centre (o = max |c_i|), a state of level
    L lies within o + L * r of it (r as in ``_reach``), so the box test is
    skipped on every level with o + L * r <= h.
    """
    import numpy as np

    side = 2 * h + 1
    box = side**basis.rank
    dist = np.full(_cover_states(wmap, basis, h), -1, dtype=np.int32)
    dist[start] = 0
    reach = _reach(moves)
    offset = max((abs(start % box // side**i % side - h) for i in range(basis.rank)), default=0)
    frontier = np.array([start], dtype=np.int64)
    level = 0
    while frontier.size:
        level += 1
        inside = offset + level * reach <= h  # no move of this level leaves the box
        faces = frontier // box
        parts = []
        for f_from, face_moves in moves.items():
            at = frontier[faces == f_from]
            if not at.size:
                continue
            if not inside:
                digits = [(at // side**i) % side for i in range(basis.rank)]
            for flat, steps in face_moves:
                sel = at
                if steps and not inside:
                    keep = True  # stays in the box: 0 <= digit + d < side
                    for i, d in steps:
                        keep = keep & (digits[i] >= -d if d < 0 else digits[i] < side - d)
                    sel = at[keep]
                sel = sel + flat
                sel = sel[dist[sel] < 0]
                dist[sel] = level
                parts.append(sel)
        frontier = np.concatenate(parts)
        if targets is not None and (dist[targets] >= 0).all():
            break
    return dist


def _box_classes(rank: int, radius: int) -> list[Coords]:
    return [c for c in product(range(-radius, radius + 1), repeat=rank)]


def _single_cycle_table(
    wmap: WallSystemMap, basis: HomologyBasis, radius: int, h: int
) -> tuple[dict[Coords, tuple[float, int]], bool]:
    """Per class in the radius box: (min closed-walk length, base face), inf if none.

    The BFS from base face f0 stops once it has labelled every lift (f0, c)
    of the radius box, long before a small radius sweeps the truncation box.
    Also returns whether the table is settled: every search labelled all its
    lifts by a level L with (L - 2) * r <= h (r as in ``_reach``), so every
    larger truncation gives this same table (see the module docstring).
    """
    import numpy as np

    _cover_states(wmap, basis, h)  # an over-budget box is refused before its tables are built
    box = (2 * h + 1) ** basis.rank
    moves = _cover_moves([m[:3] for m in basis.moves], h)
    reach = _reach(moves)
    table = {c: (math.inf, -1) for c in _box_classes(basis.rank, radius)}
    lifts = np.array([_lift(h, 0, c) for c in table])
    settled = True
    for f0 in range(len(wmap.faces)):
        targets = f0 * box + lifts
        start = f0 * box + box // 2  # the zero class is the centre of the box
        dist = _distances(wmap, basis, h, start, moves, targets)[targets].tolist()
        settled = settled and min(dist) >= 0 and (max(dist) - 2) * reach <= h
        for (c, (best, _)), d in zip(table.items(), dist):
            if 0 <= d < best:
                table[c] = (d, f0)
    return table, settled


def _dp_tables(single: dict[Coords, tuple[float, int]], radius: int):
    """Fixpoint of M(c) = min(single(c), M(c1) + M(c - c1)) over the box.

    Gauss-Seidel sweeps over the classes in ascending order; each tries the
    splits c1 in ascending order of the values at the sweep's start (ties
    ascending), updates M(c) in place on every strict improvement and stops
    at the first c1 with M(c1) + 1 >= M(c).  Classes are list indices, and
    c - c1 is found through packed keys: with w = 4 * radius + 1 and
    key(c) = sum_t (c_t + 2 * radius) * w**t, every digit of
    key(c) - key(c1) + sum_t 2 * radius * w**t lies in [0, 4 * radius], so
    it is the key of c - c1 when that lies in the box and of no class
    otherwise.
    """
    classes = sorted(single)
    rank = len(classes[0])
    w = 4 * radius + 1
    keys = [sum((x + 2 * radius) * w**t for t, x in enumerate(c)) for c in classes]
    index = {k: i for i, k in enumerate(keys)}.get
    shift = sum(2 * radius * w**t for t in range(rank))
    zero = index(shift)  # the key of the zero class
    m = [single[c][0] for c in classes]
    m[zero] = 0
    choice: dict[int, tuple[int, int]] = {}
    changed = True
    while changed:
        changed = False
        order = sorted(range(len(classes)), key=m.__getitem__)
        for i, key in enumerate(keys):
            bound = m[i]
            key += shift
            for j in order:
                v1 = m[j]
                if v1 + 1 >= bound:
                    break
                if j == zero:
                    continue
                j2 = index(key - keys[j])
                if j2 is None:
                    continue
                v = v1 + m[j2]
                if v < bound:
                    bound = m[i] = v
                    choice[i] = (j, j2)
                    changed = True
    return (
        dict(zip(classes, m)),
        {classes[i]: (classes[j], classes[j2]) for i, (j, j2) in choice.items()},
    )


def _walk(
    wmap: WallSystemMap, basis: HomologyBasis, target: Coords, h: int, base_face: int
) -> Walk | None:
    """First shortest closed walk of the target class at base_face, by move order.

    A reverse search from (base_face, target) labels each state with its
    distance to the goal; the walk then steps from (base_face, 0) by the
    first move in ``basis.moves`` order that stays in the box and gets one
    step closer.  That is the walk a FIFO BFS trying moves in that order
    finds.  None when no such walk fits inside the box.
    """
    back = _cover_moves([(f_to, f_from, tuple(-d for d in delta))
                         for f_from, f_to, delta, _ in basis.moves], h)
    face, vec = base_face, (0,) * basis.rank
    start = _lift(h, face, vec)
    dist = _distances(wmap, basis, h, _lift(h, base_face, target), back, [start])
    left = int(dist[start])
    if left < 0:
        return None
    walk = []
    while left:
        left -= 1
        for f_from, f_to, delta, crossing in basis.moves:
            if f_from == face:
                new_vec = tuple(a + b for a, b in zip(vec, delta))
                if max(map(abs, new_vec)) <= h and dist[_lift(h, f_to, new_vec)] == left:
                    break
        else:
            raise InternalError("a labelled state has no move one step closer")
        walk.append(crossing)
        face, vec = f_to, new_vec
    return tuple(walk)


def min_single_cycle(
    wmap: WallSystemMap, basis: HomologyBasis, a: Sequence[int], h: int
) -> tuple[int, Walk]:
    """Minimum length of one closed dual walk of class exactly a, with witness.

    Raises BoxExceeded when no such walk fits inside the truncation box, and
    ResourceLimit, before allocating its table, when the box is over
    MAX_COVER_STATES.
    """
    a = _class_coords(a, basis.rank)
    h = _radius(h, "truncation")
    if h < max((abs(x) for x in a), default=0):
        raise ValueError("truncation radius is smaller than the class itself")
    best: Walk | None = None
    for f0 in range(len(wmap.faces)):
        walk = _walk(wmap, basis, a, h, f0)
        if walk is not None and (best is None or len(walk) < len(best)):
            best = walk
    if best is None:
        raise BoxExceeded(f"no closed walk of class {a} inside the box of radius {h}")
    return len(best), best


def _radius(value: int, name: str) -> int:
    """A radius read with ``operator.index``; ValueError if it is no integer or negative."""
    try:
        r = index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, not {value!r}") from None
    if r < 0:
        raise ValueError(f"{name} must not be negative, not {r}")
    return r


def default_truncation(basis: HomologyBasis, radius: int) -> int:
    return radius + basis.rank + 2


def min_multicurve(
    wmap: WallSystemMap,
    basis: HomologyBasis,
    a: Sequence[int],
    h: int | None = None,
    max_truncation: int | None = None,
) -> tuple[int, MultiCurveCertificate]:
    """Minimum total length over multi-curves (sums of closed walks) in class a.

    Values are accepted as ``_stable_tables`` accepts them; the truncation
    doubles while they are not, up to a cap, after which BoxExceeded
    (nothing found) or UnstableTruncation (still improving) is raised.
    """
    a = _class_coords(a, basis.rank)
    if max_truncation is not None:
        max_truncation = _radius(max_truncation, "max_truncation")
    radius = max(1, max(abs(x) for x in a)) if any(a) else 1
    trunc = _radius(h, "truncation") if h is not None else default_truncation(basis, radius)
    if trunc < radius:
        raise ValueError("truncation radius is smaller than the class box")
    trunc, single, m, choice = _stable_tables(
        wmap, basis, radius, trunc, max_truncation, [a],
        lambda _, t: f"no multi-curve of class {a} inside the box of radius {t}",
        lambda _, t: f"value for {a} still improving at truncation {t}",
    )
    return int(m[a]), _certificate(wmap, basis, a, trunc, single, choice)


def _stable_tables(
    wmap: WallSystemMap, basis: HomologyBasis, radius: int, trunc: int,
    max_truncation: int | None, watched: list[Coords],
    empty: Callable[..., str], improving: Callable[..., str],
):
    """The tables at the first truncation where growing it by one changes nothing.

    A settled single-cycle table (see ``_single_cycle_table``) is the same
    at every larger truncation, so it is accepted without building the
    tables at h + 1.  Otherwise they are built and compared, and the
    truncation doubles while some watched class is unrepresented or still
    improving; beyond the cap (default eight times the start),
    BoxExceeded or UnstableTruncation is raised with the message ``empty``
    or ``improving`` makes of the offending classes and the truncation.
    Returns (truncation, single-cycle table, minima, decomposition choices).
    """
    cap = max_truncation if max_truncation is not None else 8 * trunc
    while True:
        single, settled = _single_cycle_table(wmap, basis, radius, trunc)
        m, choice = _dp_tables(single, radius)
        if settled:
            return trunc, single, m, choice
        single1, _ = _single_cycle_table(wmap, basis, radius, trunc + 1)
        m1, _ = _dp_tables(single1, radius)
        unreachable = [c for c in watched if math.isinf(m[c]) or math.isinf(m1[c])]
        unstable = [c for c in watched if m[c] != m1[c]]
        if not unreachable and not unstable:
            return trunc, single, m, choice
        if 2 * trunc > cap:
            if unreachable:
                raise BoxExceeded(empty(unreachable, trunc))
            raise UnstableTruncation(improving(unstable, trunc + 1))
        trunc *= 2


def _certificate(
    wmap: WallSystemMap,
    basis: HomologyBasis,
    a: Coords,
    trunc: int,
    single: dict[Coords, tuple[float, int]],
    choice: dict[Coords, tuple[Coords, Coords]],
) -> MultiCurveCertificate:
    rank = basis.rank
    zero = (0,) * rank
    components: list[Coords] = []

    def split(c: Coords) -> None:
        if c == zero:
            return
        if c in choice:
            c1, c2 = choice[c]
            split(c1)
            split(c2)
        else:
            components.append(c)

    split(a)
    cycles = []
    total = 0
    for c in sorted(components):
        _, f0 = single[c]
        walk = _walk(wmap, basis, c, trunc, f0)
        if walk is None:
            raise InternalError("certificate component lost its witness")
        cycles.append((walk, c, len(walk)))
        total += len(walk)
    return MultiCurveCertificate(tuple(cycles), total, a)


def verify_min_equals_max(wmap: WallSystemMap, basis: HomologyBasis, box_radius: int) -> VerifyReport:
    """Compare the oracle minimum against the Eulerian maximum over a box.

    Both sides are computed independently for every integer class with
    coordinates bounded by box_radius; any disagreement is reported.
    """
    radius = _radius(box_radius, "box radius")
    trunc = default_truncation(basis, radius)
    _cover_states(wmap, basis, trunc)  # before the watched box is listed
    trunc, _, m, _ = _stable_tables(
        wmap, basis, radius, trunc, None, _box_classes(basis.rank, radius),
        lambda cs, t: f"classes {cs[:3]}... not represented inside radius {t}",
        lambda cs, t: f"values for {cs[:3]}... still improving at {t}",
    )
    normball.dual_ball(wmap, basis)  # many norm queries follow: build the ball they read
    discrepancies = []
    for c in sorted(m):
        expected = normball.norm(wmap, basis, c).value
        if m[c] != expected:
            discrepancies.append((c, int(m[c]), expected))
    return VerifyReport(radius, trunc, len(m), tuple(discrepancies))
