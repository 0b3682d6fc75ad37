"""Constructive realization of a class as an Eulerian coorientation.

A target class n seeds integer values n.h on the lifts (0, h) of face 0 in
the maximal abelian cover.  The highest extension

    f(x) = min over seeds y of  seed(y) + distance(x, y)

is equivariant under the deck group, so it factors as
f(F, h) = n.h + g(F) with a potential g on the finite dual graph: g is the
shortest-path distance from face 0 when crossing edge e costs 1 - n.w_e
from right to left and 1 + n.w_e from left to right (w_e the cocycle
weights of e).  ``highest_potential`` computes g exactly by Bellman-Ford
and reads the position of n against the dual ball off it:

* a negative cycle is a closed dual walk shorter than its pairing with n,
  so n is outside the ball, and the walk is the certificate; the run stops
  once face 0's own label goes negative, usually within a few rounds;
* otherwise a cycle of tight crossings (zero reduced cost) is a walk whose
  length equals its pairing with n, so n is on the boundary;
* otherwise n is interior.

The classes of the tight closed walks span the ball's normal cone at n: a
tight walk c has len(c) = n.[c] <= x([c]) <= len(c), and conversely a
shortest multi-curve of a normal direction splits into tight walks.  Their
rank, ``normal_rank``, is therefore full exactly when n is a vertex of the
ball, which is how ``normball.dual_ball`` finds its extreme points.

When n is inside the ball and congruent to the crossing parity class,
f is eikonal, changing by exactly one across every wall, and the change
n.w_e + g(left) - g(right) descends to a coorientation of the wall system:
the realization.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from operator import mul
from typing import Sequence

from .coorient import (
    Coorientation, _parent_cycle, classes_of, is_eulerian, iter_eulerian,
)
from .errors import InternalError, NotRealizable
from .homology import Coords, HomologyBasis, _class_coords, _walk_weight, gamma_parity
from .simplex import affine_dimension
from .surface_map import Crossing, Walk, WallSystemMap


@dataclass(frozen=True)
class HighestPotential:
    """The highest extension of a target's seed n.h, as a potential on the faces.

    ``position`` is 'outside', 'boundary' or 'interior'.  Outside the ball,
    ``certificate`` is a closed dual walk whose length is less than its
    pairing with the target and ``values``/``steps``/``normal_rank`` are
    None.  Otherwise ``values`` holds g per face (g(0) = 0), ``steps`` the
    change of the extension across each edge, right to left, and ``tight``
    the tight arcs (from face, to face, class delta).  ``normal_rank``,
    computed on first use, is the rank of the classes of tight closed dual
    walks: the dimension of the ball's normal cone at n, so 0 inside the
    ball and the full rank exactly at a vertex.
    """

    position: str
    values: tuple[int, ...] | None = None
    steps: tuple[int, ...] | None = None
    certificate: Walk | None = None
    tight: tuple[tuple[int, int, Coords], ...] = field(default=(), repr=False)
    basis_rank: int = 0

    @cached_property
    def normal_rank(self) -> int | None:
        if self.position == "outside":
            return None
        return _cycle_rank(len(self.values), self.tight, self.basis_rank)


def highest_potential(
    wmap: WallSystemMap, basis: HomologyBasis, n: Sequence[int]
) -> HighestPotential:
    """Bellman-Ford from face 0 on the dual graph with the target's crossing costs."""
    n = _class_coords(n, basis.rank, "target class")
    return _potential(wmap, basis, _arcs(basis, [sum(map(mul, n, w)) for w in basis.edge_weights]))


def _arcs(basis: HomologyBasis, pairings: Sequence[int]) -> list[tuple[int, int, int, Crossing]]:
    """The arcs (from, to, cost, crossing) of the moves in order, from t = n.w_e per edge.

    An edge's moves are adjacent, deltas w_e then -w_e: t prices both, 1 - t and 1 + t.
    """
    moves = basis.moves
    arcs = []
    for (u, v, _, right_left), (_, _, _, left_right), t in zip(moves[::2], moves[1::2], pairings):
        arcs += ((u, v, 1 - t, right_left), (v, u, 1 + t, left_right))
    return arcs


def _potential(
    wmap: WallSystemMap, basis: HomologyBasis, arcs: list[tuple[int, int, int, Crossing]]
) -> HighestPotential:
    """The highest potential from the arcs (from, to, cost, crossing), one per move in order."""
    faces = wmap.dual_graph.node_count
    g: list[int | None] = [None] * faces
    g[0] = 0
    parent: list[tuple[int, Crossing] | None] = [None] * faces
    for _ in range(faces):
        changed = False
        for u, v, cost, crossing in arcs:
            gu = g[u]
            if gu is not None and (g[v] is None or gu + cost < g[v]):
                g[v] = gu + cost
                parent[v] = (u, crossing)
                changed = True
        if not changed or g[0] < 0:
            break
    if changed:  # round F relaxed or face 0's label went negative: a negative parent cycle
        return HighestPotential("outside", certificate=tuple(reversed(_parent_cycle(parent))))

    # the step across an edge is one minus the reduced cost of its right -> left arc
    reduced = [g[u] + cost - g[v] for u, v, cost, _ in arcs]
    steps = tuple(1 - r for r, (_, _, _, (_, d)) in zip(reduced, arcs) if d > 0)
    tight = tuple(move[:3] for move, r in zip(basis.moves, reduced) if r == 0)
    # every tight closed walk has a nonzero class, so a tight cycle is a normal direction
    position = "boundary" if _has_cycle(faces, tight) else "interior"
    return HighestPotential(position, tuple(g), steps, tight=tight, basis_rank=basis.rank)


def _has_cycle(faces: int, arcs: Sequence[tuple[int, int, Coords]]) -> bool:
    """Whether the directed arcs (from, to, ...) close a cycle (Kahn's peeling)."""
    indegree = [0] * faces
    out: list[list[int]] = [[] for _ in range(faces)]
    for u, v, _ in arcs:
        out[u].append(v)
        indegree[v] += 1
    free = [f for f in range(faces) if not indegree[f]]
    peeled = 0
    while free:
        u = free.pop()
        peeled += 1
        for v in out[u]:
            indegree[v] -= 1
            if not indegree[v]:
                free.append(v)
    return peeled < faces


def _cycle_rank(faces: int, arcs: Sequence[tuple[int, int, Coords]], rank: int) -> int:
    """Rank of the classes of the closed walks along the arcs (from, to, class delta).

    Such walks stay inside the strongly connected components of the arcs.
    Each component gets a spanning-tree potential phi, with phi(v) =
    phi(u) + delta along tree arcs; then delta + phi(u) - phi(v) is the
    class of an arc's fundamental cycle, and these classes span the classes
    of all closed walks along the arcs.
    """
    out: list[list[tuple[int, Coords]]] = [[] for _ in range(faces)]
    reach = [1 << f for f in range(faces)]  # bit w of reach[f]: w is reachable from f
    for u, v, delta in arcs:
        out[u].append((v, delta))
        reach[u] |= 1 << v
    for k in range(faces):  # Warshall's transitive closure
        for f in range(faces):
            if reach[f] >> k & 1:
                reach[f] |= reach[k]
    phi: dict[int, Coords] = {}
    classes = set()
    for root in range(faces):
        if root in phi:
            continue
        phi[root] = (0,) * rank
        stack = [root]
        while stack:
            u = stack.pop()
            for v, delta in out[u]:
                if reach[v] >> root & 1:  # v is in the component of the root
                    if v not in phi:
                        phi[v] = tuple(a + b for a, b in zip(phi[u], delta))
                        stack.append(v)
                    else:
                        classes.add(tuple(d + a - b for d, a, b in zip(delta, phi[u], phi[v])))
    return affine_dimension([(0,) * rank, *classes])


@dataclass(frozen=True)
class RealizationResult:
    """An Eulerian coorientation realizing the target class."""

    coorientation: Coorientation
    target: Coords
    method: str  # "eikonal" or "enumeration-fallback" (the lookup method)


def realize(
    wmap: WallSystemMap,
    basis: HomologyBasis,
    n: Sequence[int],
    method: str = "auto",
) -> RealizationResult:
    """Produce an Eulerian coorientation of class n, or raise NotRealizable.

    n must be congruent to the crossing parity class mod 2 and lie in the
    dual ball, which the highest potential decides; outside the ball the
    error carries the potential's negative walk as its certificate.  The
    coorientation is read off the potential ("auto", reported as method
    "eikonal") or looked up in the enumeration ("lookup", a cross-check).
    Either output is verified outright: Eulerian and of class n.
    """
    n = _class_coords(n, basis.rank, "target class")
    if method not in ("auto", "lookup"):
        raise ValueError(f"unknown method {method!r}")

    parity = gamma_parity(wmap, basis)
    if any((ni - pi) % 2 for ni, pi in zip(n, parity)):
        raise NotRealizable(
            "parity", f"class {n} is not congruent to the parity class {parity} mod 2"
        )
    potential = highest_potential(wmap, basis, n)
    if potential.position == "outside":
        raise NotRealizable(
            "outside-ball", f"class {n} lies outside the dual ball", potential.certificate
        )
    if method == "lookup":
        return _lookup(wmap, basis, n)

    if any(abs(s) != 1 for s in potential.steps):
        raise InternalError(f"the highest extension of {n} is not eikonal")
    candidate = Coorientation._unchecked(potential.steps)  # every step is +-1
    walked = tuple(_walk_weight(candidate.signs, b) for b in basis.cycles)
    if not is_eulerian(wmap, candidate) or walked != n:
        raise InternalError(f"the highest extension of {n} does not realize it")
    return RealizationResult(candidate, n, "eikonal")


def _lookup(wmap: WallSystemMap, basis: HomologyBasis, n: Coords) -> RealizationResult:
    """The first Eulerian coorientation of class n in enumeration order.

    Items are classed once each, in order, up to the first of class n;
    ``realize`` has checked the basis against the map already.
    """
    items = tuple(iter_eulerian(wmap))
    for coor, cls in zip(items, classes_of(items, basis)):
        if cls == n:
            return RealizationResult(coor, n, "enumeration-fallback")
    raise NotRealizable(
        "outside-ball", f"no Eulerian coorientation has class {n}"
    )
