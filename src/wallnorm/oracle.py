"""Independent brute-force computation of the intersection norm.

The minimum side of the norm is computed directly: shortest closed dual
walks of a prescribed class are found by breadth-first search in the
maximal abelian cover (states are a face plus an integer class vector,
truncated to a box), and minima over multi-curves by a decomposition
dynamic program over the class box.  Truncation is guarded empirically:
a value is only accepted when growing the radius by one does not improve it.

This module never consults the Eulerian maximization; the two sides meet
only in ``verify_min_equals_max``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import Sequence

import numpy as np

from .errors import BoxExceeded, InternalError, UnstableTruncation
from .homology import Coords, HomologyBasis
from .surface_map import Walk, WallSystemMap
from . import normball


@dataclass(frozen=True)
class MultiCurveCertificate:
    """A witness decomposition: closed dual walks with classes and lengths."""

    cycles: tuple[tuple[Walk, Coords, int], ...]
    total_length: int
    total_class: Coords


@dataclass(frozen=True)
class VerifyReport:
    """Outcome of comparing the oracle against the max formula over a box."""

    box_radius: int
    truncation: int
    checked: int
    discrepancies: tuple[tuple[Coords, int, int], ...]

    @property
    def ok(self) -> bool:
        return not self.discrepancies


def _moves(wmap: WallSystemMap, basis: HomologyBasis):
    """Directed cover transitions: (from_face, to_face, class delta, crossing)."""
    out = []
    for e, (right, left) in enumerate(wmap.dual_graph.ends):
        w = basis.edge_weights[e]
        out.append((right, left, w, (e, +1)))
        out.append((left, right, tuple(-x for x in w), (e, -1)))
    return out


def _distances(wmap: WallSystemMap, basis: HomologyBasis, h: int, base_face: int) -> np.ndarray:
    """BFS distances from (base_face, 0) over the box |h_i| <= h (flat layout)."""
    rank = basis.rank
    side = 2 * h + 1
    box = side**rank
    strides = [side**i for i in range(rank)]
    total = len(wmap.faces) * box
    dist = np.full(total, -1, dtype=np.int32)
    start = base_face * box + sum(h * s for s in strides)
    dist[start] = 0
    frontier = np.array([start], dtype=np.int64)

    moves = []
    for f_from, f_to, delta, _ in _moves(wmap, basis):
        flat = (f_to - f_from) * box + sum(d * s for d, s in zip(delta, strides))
        moves.append((f_from, delta, flat))

    level = 0
    while frontier.size:
        parts = []
        faces = frontier // box
        for f_from, delta, flat in moves:
            sel = frontier[faces == f_from]
            for i in range(rank):
                if not sel.size:
                    break
                d = delta[i]
                if d:
                    digit = (sel // strides[i]) % side
                    sel = sel[(digit + d >= 0) & (digit + d < side)]
            if sel.size:
                parts.append(sel + flat)
        if not parts:
            break
        candidates = np.unique(np.concatenate(parts))
        new = candidates[dist[candidates] < 0]
        if not new.size:
            break
        level += 1
        dist[new] = level
        frontier = new
    return dist


def _box_classes(rank: int, radius: int) -> list[Coords]:
    return [c for c in product(range(-radius, radius + 1), repeat=rank)]


def _single_cycle_table(
    wmap: WallSystemMap, basis: HomologyBasis, radius: int, h: int
) -> dict[Coords, tuple[float, int]]:
    """Per class in the radius box: (min closed-walk length, base face), inf if none."""
    rank = basis.rank
    side = 2 * h + 1
    box = side**rank
    strides = [side**i for i in range(rank)]
    table: dict[Coords, tuple[float, int]] = {
        c: (math.inf, -1) for c in _box_classes(rank, radius)
    }
    for f0 in range(len(wmap.faces)):
        dist = _distances(wmap, basis, h, f0)
        for c in table:
            idx = f0 * box + sum((ci + h) * s for ci, s in zip(c, strides))
            d = int(dist[idx])
            if d >= 0 and d < table[c][0]:
                table[c] = (d, f0)
    return table


def _dp_tables(single: dict[Coords, tuple[float, int]], radius: int):
    """Fixpoint of M(c) = min(single(c), M(c1) + M(c - c1)) over the box."""
    classes = sorted(single)
    rank = len(classes[0])
    zero = (0,) * rank
    m: dict[Coords, float] = {c: single[c][0] for c in classes}
    m[zero] = 0
    choice: dict[Coords, tuple[Coords, Coords]] = {}
    changed = True
    while changed:
        changed = False
        order = sorted(classes, key=lambda c: m[c])
        for c in classes:
            bound = m[c]
            for c1 in order:
                v1 = m[c1]
                if c1 == zero or v1 + 1 >= bound:
                    if v1 + 1 >= bound:
                        break
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


def _bfs_walk(
    wmap: WallSystemMap, basis: HomologyBasis, target: Coords, h: int, base_face: int
) -> Walk | None:
    """Shortest closed walk of the target class based at base_face (parents BFS)."""
    rank = basis.rank
    moves = _moves(wmap, basis)
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


def min_single_cycle(
    wmap: WallSystemMap, basis: HomologyBasis, a: Sequence[int], h: int
) -> tuple[int, Walk]:
    """Minimum length of one closed dual walk of class exactly a, with witness.

    Raises BoxExceeded when no such walk fits inside the truncation box.
    """
    a = tuple(int(x) for x in a)
    if len(a) != basis.rank:
        raise ValueError(f"class must have {basis.rank} coordinates")
    if h < max((abs(x) for x in a), default=0):
        raise ValueError("truncation radius is smaller than the class itself")
    best: tuple[int, int] | None = None
    for f0 in range(len(wmap.faces)):
        walk = _bfs_walk(wmap, basis, a, h, f0)
        if walk is not None and (best is None or len(walk) < best[0]):
            best = (len(walk), f0)
    if best is None:
        raise BoxExceeded(f"no closed walk of class {a} inside the box of radius {h}")
    walk = _bfs_walk(wmap, basis, a, h, best[1])
    return len(walk), walk


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

    Values are accepted only when growing the truncation by one does not
    improve them; the radius doubles on failure up to a cap, after which
    BoxExceeded (nothing found) or UnstableTruncation (still improving) is
    raised.
    """
    a = tuple(int(x) for x in a)
    if len(a) != basis.rank:
        raise ValueError(f"class must have {basis.rank} coordinates")
    radius = max(1, max(abs(x) for x in a)) if any(a) else 1
    trunc = h if h is not None else default_truncation(basis, radius)
    if trunc < radius:
        raise ValueError("truncation radius is smaller than the class box")
    cap = max_truncation if max_truncation is not None else 8 * trunc

    while True:
        single = _single_cycle_table(wmap, basis, radius, trunc)
        m, choice = _dp_tables(single, radius)
        single1 = _single_cycle_table(wmap, basis, radius, trunc + 1)
        m1, _ = _dp_tables(single1, radius)
        value = m[a]
        if math.isinf(value) or math.isinf(m1[a]):
            if 2 * trunc > cap:
                raise BoxExceeded(
                    f"no multi-curve of class {a} inside the box of radius {trunc}"
                )
            trunc *= 2
            continue
        if value != m1[a]:
            if 2 * trunc > cap:
                raise UnstableTruncation(
                    f"value for {a} still improving at truncation {trunc + 1}"
                )
            trunc *= 2
            continue
        certificate = _certificate(wmap, basis, a, trunc, single, choice)
        return int(value), certificate


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
        walk = _bfs_walk(wmap, basis, c, trunc, f0)
        if walk is None:
            raise InternalError("certificate component lost its witness")
        cycles.append((walk, c, len(walk)))
        total += len(walk)
    return MultiCurveCertificate(tuple(cycles), total, a)


def verify_min_equals_max(
    wmap: WallSystemMap,
    basis: HomologyBasis,
    box_radius: int,
    h: int | None = None,
    max_truncation: int | None = None,
) -> VerifyReport:
    """Compare the oracle minimum against the Eulerian maximum over a box.

    Both sides are computed independently for every integer class with
    coordinates bounded by box_radius; any disagreement is reported.
    """
    radius = int(box_radius)
    trunc = h if h is not None else default_truncation(basis, radius)
    cap = max_truncation if max_truncation is not None else 8 * trunc

    while True:
        single = _single_cycle_table(wmap, basis, radius, trunc)
        m, _ = _dp_tables(single, radius)
        single1 = _single_cycle_table(wmap, basis, radius, trunc + 1)
        m1, _ = _dp_tables(single1, radius)
        unreachable = [c for c in m if math.isinf(m[c]) or math.isinf(m1[c])]
        if unreachable:
            if 2 * trunc > cap:
                raise BoxExceeded(
                    f"classes {unreachable[:3]}... not represented inside radius {trunc}"
                )
            trunc *= 2
            continue
        unstable = [c for c in m if m[c] != m1[c]]
        if unstable:
            if 2 * trunc > cap:
                raise UnstableTruncation(
                    f"values for {unstable[:3]}... still improving at {trunc + 1}"
                )
            trunc *= 2
            continue
        break

    discrepancies = []
    for c in sorted(m):
        expected = normball.norm(wmap, basis, c).value
        if m[c] != expected:
            discrepancies.append((c, int(m[c]), expected))
    return VerifyReport(radius, trunc, len(m), tuple(discrepancies))
