"""Coorientations of a wall system and the Eulerian condition.

A coorientation picks a crossing direction for every edge; the sign is
+1 when that direction agrees with the reference direction right face ->
left face.  Eulerian coorientations are the ones that vanish on
boundaries, which is local: the kappa-weighted signs around every double
point cancel.  Each Eulerian coorientation evaluates on closed dual walks
through homology only, so it carries an integer cohomology class.
"""

from __future__ import annotations

import os
from collections import Counter
from dataclasses import dataclass, field
from itertools import product
from typing import Iterator, Sequence

from .errors import InternalError, MalformedInput, NotBipartite, NotEulerian, ResourceLimit
from .homology import Coords, HomologyBasis, homology_basis
from .surface_map import Crossing, WallSystemMap

ENUM_CAP_ENV = "WALLNORM_MAX_ENUM"
DEFAULT_ENUM_CAP = 1_000_000


@dataclass(frozen=True)
class Coorientation:
    """Signs in {+1, -1}, one per edge, relative to the reference direction."""

    signs: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(s not in (-1, 1) for s in self.signs):
            raise MalformedInput("coorientation signs must be +1 or -1")

    def __len__(self) -> int:
        return len(self.signs)

    def reversed(self) -> "Coorientation":
        return Coorientation(tuple(-s for s in self.signs))

    def to_text(self) -> str:
        lines = [f"edge {j}: {'+' if s > 0 else '-'}" for j, s in enumerate(self.signs)]
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str, edge_count: int) -> "Coorientation":
        signs: dict[int, int] = {}
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            head, _, rest = line.partition(" ")
            if head != "edge" or ":" not in rest:
                raise MalformedInput(f"line {lineno}: expected 'edge <j>: +|-'")
            index_part, _, sign_part = rest.partition(":")
            try:
                index = int(index_part)
            except ValueError:
                raise MalformedInput(f"line {lineno}: bad edge index {index_part!r}") from None
            sign_token = sign_part.strip()
            if sign_token not in ("+", "-"):
                raise MalformedInput(f"line {lineno}: sign must be '+' or '-'")
            if index in signs:
                raise MalformedInput(f"line {lineno}: repeated edge {index}")
            signs[index] = 1 if sign_token == "+" else -1
        if sorted(signs) != list(range(edge_count)):
            raise MalformedInput(f"coorientation must list edges 0..{edge_count - 1}")
        return cls(tuple(signs[j] for j in range(edge_count)))


def _vertex_terms(wmap: WallSystemMap, coor: Coorientation, v: int) -> list[int]:
    return [wmap.kappa(d) * coor.signs[wmap.dart_edge[d]] for d in wmap.rotations[v]]


def is_eulerian(wmap: WallSystemMap, coor: Coorientation) -> bool:
    """True iff the kappa-weighted signs cancel around every vertex."""
    if len(coor) != wmap.edge_count:
        raise MalformedInput("coorientation length does not match the edge count")
    return all(sum(_vertex_terms(wmap, coor, v)) == 0 for v in range(wmap.vertex_count))


def vertex_kind(wmap: WallSystemMap, coor: Coorientation, v: int) -> str:
    """Local type at a double point: 'alternating', 'transparent', or 'none'.

    Transparent means the coorientation continues straight through along
    both strands; alternating means it flips on every strand.
    """
    t = _vertex_terms(wmap, coor, v)
    if sum(t) != 0:
        return "none"
    if t[0] + t[2] == 0 and t[1] + t[3] == 0:
        return "transparent"
    return "alternating"


@dataclass(frozen=True)
class EulerianSet:
    """Materialized result of an exhaustive Eulerian enumeration."""

    count: int
    items: tuple[Coorientation, ...]
    classes: "Counter[Coords]" = field(compare=False)

    def distinct_classes(self) -> tuple[Coords, ...]:
        return tuple(sorted(self.classes))


def _enum_cap(limit: int | None) -> int:
    if limit is not None:
        return limit
    env = os.environ.get(ENUM_CAP_ENV)
    return int(env) if env else DEFAULT_ENUM_CAP


def _over_cap(cap: int) -> ResourceLimit:
    return ResourceLimit(
        f"Eulerian enumeration exceeded the cap of {cap}; results would be partial"
    )


def iter_eulerian(wmap: WallSystemMap, limit: int | None = None) -> Iterator[Coorientation]:
    """Stream all Eulerian coorientations, lexicographically, + before -.

    Backtracks over edges in index order, pruning with per-vertex partial
    sums.  Raises ResourceLimit once more than the cap would be yielded, so
    a partial stream is never mistaken for a complete one.
    """
    cap = _enum_cap(limit)
    e_count = wmap.edge_count
    v_count = wmap.vertex_count
    # per edge: the (vertex, kappa) contributions of its two darts
    incidence = []
    for tail, head in wmap.edges:
        incidence.append(
            (
                (wmap.dart_vertex[tail], 1),
                (wmap.dart_vertex[head], -1),
            )
        )
    sums = [0] * v_count
    remaining = [4] * v_count
    signs = [0] * e_count
    yielded = 0

    def feasible(v: int) -> bool:
        return abs(sums[v]) <= remaining[v] and (sums[v] + remaining[v]) % 2 == 0

    def assign(e: int, s: int) -> bool:
        for v, k in incidence[e]:
            sums[v] += k * s
            remaining[v] -= 1
        return all(feasible(v) for v, _ in incidence[e])

    def undo(e: int, s: int) -> None:
        for v, k in incidence[e]:
            sums[v] -= k * s
            remaining[v] += 1

    def walk(e: int) -> Iterator[Coorientation]:
        nonlocal yielded
        if e == e_count:
            yielded += 1
            if yielded > cap:
                raise _over_cap(cap)
            yield Coorientation(tuple(signs))
            return
        for s in (1, -1):
            ok = assign(e, s)
            signs[e] = s
            if ok:
                yield from walk(e + 1)
            undo(e, s)
        signs[e] = 0

    return walk(0)


_eulerian_cache: dict[str, tuple[Coorientation, ...]] = {}
_class_cache: dict[tuple[str, str], Counter] = {}


def enumerate_eulerian(
    wmap: WallSystemMap,
    basis: HomologyBasis | None = None,
    limit: int | None = None,
) -> EulerianSet:
    """Exhaustive, duplicate-free Eulerian enumeration with class multiset.

    The cap applies alike to a fresh and to a cached enumeration.
    """
    if basis is None:
        basis = homology_basis(wmap)
    cap = _enum_cap(limit)
    items = _eulerian_cache.get(wmap.digest)
    if items is None:
        items = tuple(iter_eulerian(wmap, cap))
        _eulerian_cache[wmap.digest] = items
    elif len(items) > cap:
        raise _over_cap(cap)
    key = (wmap.digest, basis.signature)
    classes = _class_cache.get(key)
    if classes is None:
        classes = Counter(class_of(wmap, coor, basis) for coor in items)
        _class_cache[key] = classes
    return EulerianSet(len(items), items, classes)


def checkerboard_coorientation(wmap: WallSystemMap) -> Coorientation:
    """Two-color the faces and coorient every edge toward the white side.

    White is the color of face 0 (even dual-graph distance).  Raises
    NotBipartite when the dual graph has an odd cycle, i.e. when the mod-2
    class of the wall system is nonzero.
    """
    dual = wmap.dual_graph
    color = [-1] * dual.node_count
    color[0] = 0
    frontier = [0]
    while frontier:
        nxt = []
        for node in frontier:
            for edge, _, other in dual.moves[node]:
                if color[other] < 0:
                    color[other] = color[node] ^ 1
                    nxt.append(other)
                elif color[other] == color[node]:
                    raise NotBipartite(
                        f"faces {node} and {other} share edge {edge} but need equal colors"
                    )
        frontier = nxt
    signs = []
    for right, left in dual.ends:
        signs.append(1 if color[left] == 0 else -1)
    return Coorientation(tuple(signs))


def brunella_coorientations(wmap: WallSystemMap) -> list[Coorientation]:
    """The 2^c transparent coorientations, one constant choice per curve.

    Along the canonical traversal of each curve the coorientation keeps
    pointing to the same side, so every vertex comes out transparent.
    """
    curves = wmap.curves
    per_curve: list[list[tuple[int, int]]] = []
    for curve in curves:
        assignment = []
        covered = set()
        for d in curve.darts:
            e = wmap.dart_edge[d]
            if e in covered:
                raise InternalError("curve traversal covered an edge twice")
            covered.add(e)
            assignment.append((e, 1 if wmap.dart_is_tail[d] else -1))
        if covered != set(curve.edges):
            raise InternalError("curve traversal missed an edge of the curve")
        per_curve.append(assignment)

    out = []
    for combo in product((1, -1), repeat=len(curves)):
        signs = [0] * wmap.edge_count
        for tau, assignment in zip(combo, per_curve):
            for e, orient in assignment:
                signs[e] = tau * orient
        out.append(Coorientation(tuple(signs)))
    return out


def evaluate(wmap: WallSystemMap, coor: Coorientation, walk: Sequence[Crossing]) -> int:
    """Signed crossing count of a closed dual walk against the coorientation."""
    walk = tuple(walk)
    wmap.dual_graph.check_closed(walk)
    return sum(direction * coor.signs[e] for e, direction in walk)


def class_of(wmap: WallSystemMap, coor: Coorientation, basis: HomologyBasis) -> Coords:
    """Cohomology class of an Eulerian coorientation in the active basis."""
    if not is_eulerian(wmap, coor):
        raise NotEulerian("only Eulerian coorientations induce a cohomology class")
    return tuple(evaluate(wmap, coor, b) for b in basis.cycles)
