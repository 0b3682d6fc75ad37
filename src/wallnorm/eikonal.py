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
  so n is outside the ball, and the walk is the certificate;
* otherwise a cycle of tight crossings (zero reduced cost) is a walk whose
  length equals its pairing with n, so n is on the boundary;
* otherwise n is interior.

When n is inside the ball and congruent to the crossing parity class,
f is eikonal, changing by exactly one across every wall, and the change
n.w_e + g(left) - g(right) descends to a coorientation of the wall system:
the realization.

``extend_highest`` computes the same extension on a truncated box of the
cover, by multi-source shortest paths; it is kept as an independent check
of the potential, off the realization path.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import product
from typing import Iterator, Sequence

from .coorient import Coorientation, class_of, is_eulerian, iter_eulerian
from .errors import InternalError, NotRealizable
from .homology import Coords, HomologyBasis, gamma_parity
from .surface_map import Crossing, Walk, WallSystemMap

State = tuple[int, Coords]


def seed_values(basis: HomologyBasis, n: Sequence[int], radius: int,
                base_face: int = 0) -> dict[Coords, int]:
    """The seed n.h on every lift (base_face, h) with |h_i| <= radius."""
    n = tuple(int(x) for x in n)
    if len(n) != basis.rank:
        raise ValueError(f"target class must have {basis.rank} coordinates")
    out = {}
    for h in product(range(-radius, radius + 1), repeat=basis.rank):
        out[h] = sum(ni * hi for ni, hi in zip(n, h))
    return out


@dataclass(frozen=True)
class EikonalField:
    """Values of the highest extension on the truncated cover box."""

    wmap: WallSystemMap
    basis: HomologyBasis
    target: Coords
    radius: int
    base_face: int
    values: dict[State, int]

    def in_box(self, state: State, radius: int | None = None) -> bool:
        r = self.radius if radius is None else radius
        return all(abs(x) <= r for x in state[1])

    def lifted_pairs(self, edge: int, radius: int) -> Iterator[tuple[State, State]]:
        """All (right lift, left lift) pairs across a wall inside the radius."""
        right, left = self.wmap.dual_graph.ends[edge]
        delta = self.basis.edge_weights[edge]
        for h in product(range(-radius, radius + 1), repeat=self.basis.rank):
            h_left = tuple(a + b for a, b in zip(h, delta))
            if all(abs(x) <= radius for x in h_left):
                yield (right, h), (left, h_left)

    def eikonal_violations(self, radius: int) -> list[tuple[State, State, int | None]]:
        """Wall crossings inside the radius where the step is not exactly one.

        A state the extension never reached counts as a violation (step None).
        """
        out = []
        for e in range(self.wmap.edge_count):
            for right_state, left_state in self.lifted_pairs(e, radius):
                left = self.values.get(left_state)
                right = self.values.get(right_state)
                if left is None or right is None:
                    out.append((right_state, left_state, None))
                elif abs(left - right) != 1:
                    out.append((right_state, left_state, left - right))
        return out

    def equivariance_violations(self, radius: int) -> list[tuple[State, State]]:
        """State pairs (same face) inside the radius breaking f(h+u)-f(h) = n.u."""
        out = []
        box = [h for h in product(range(-radius, radius + 1), repeat=self.basis.rank)]
        for face in range(len(self.wmap.faces)):
            for h1 in box:
                v1 = self.values.get((face, h1))
                for h2 in box:
                    v2 = self.values.get((face, h2))
                    expected = sum(
                        ni * (a - b) for ni, a, b in zip(self.target, h2, h1)
                    )
                    if v1 is None or v2 is None or v2 - v1 != expected:
                        out.append(((face, h1), (face, h2)))
        return out


def extend_highest(
    wmap: WallSystemMap,
    basis: HomologyBasis,
    seed: dict[Coords, int],
    radius: int,
    base_face: int = 0,
    target: Sequence[int] | None = None,
) -> EikonalField:
    """Highest extension of the seed to all cover states inside the box.

    Implemented as a multi-source shortest-path relaxation: every seed lift
    starts at its seed value and every wall crossing costs one.  The target
    class (used by the equivariance check) is read off the seed's unit
    lifts when not passed explicitly.
    """
    rank = basis.rank
    if target is None:
        target = tuple(
            seed.get(tuple(int(i == j) for j in range(rank)), 0) for i in range(rank)
        )
    values: dict[State, int] = {}
    heap: list[tuple[int, State]] = []
    for h, v in seed.items():
        if all(abs(x) <= radius for x in h):
            heapq.heappush(heap, (v, (base_face, h)))
    moves = []
    for e, (right, left) in enumerate(wmap.dual_graph.ends):
        w = basis.edge_weights[e]
        moves.append((right, left, w))
        moves.append((left, right, tuple(-x for x in w)))
    while heap:
        value, state = heapq.heappop(heap)
        if state in values:
            continue
        values[state] = value
        face, h = state
        for f_from, f_to, delta in moves:
            if f_from != face:
                continue
            h_new = tuple(a + b for a, b in zip(h, delta))
            if any(abs(x) > radius for x in h_new):
                continue
            nxt = (f_to, h_new)
            if nxt not in values:
                heapq.heappush(heap, (value + 1, nxt))
    n = tuple(int(x) for x in target)
    return EikonalField(wmap, basis, n, radius, base_face, values)


def read_coorientation(field: EikonalField, safe_radius: int) -> Coorientation | None:
    """Read edge signs from value differences across lifted walls.

    Returns None when some edge has no lifted pair inside the safe box, a
    step other than one, or inconsistent steps between different lifts;
    those all mean the truncation is still too tight.
    """
    signs = []
    for e in range(field.wmap.edge_count):
        step = None
        for right_state, left_state in field.lifted_pairs(e, safe_radius):
            left = field.values.get(left_state)
            right = field.values.get(right_state)
            if left is None or right is None:
                return None
            s = left - right
            if abs(s) != 1 or (step is not None and s != step):
                return None
            step = s
        if step is None:
            return None
        signs.append(step)
    return Coorientation(tuple(signs))


@dataclass(frozen=True)
class HighestPotential:
    """The highest extension of a target's seed n.h, as a potential on the faces.

    ``position`` is 'outside', 'boundary' or 'interior'.  Outside the ball,
    ``certificate`` is a closed dual walk whose length is less than its
    pairing with the target and ``values``/``steps`` are None.  Otherwise
    ``values`` holds g per face (g(0) = 0) and ``steps`` the change of the
    extension across each edge, right to left.
    """

    position: str
    values: tuple[int, ...] | None = None
    steps: tuple[int, ...] | None = None
    certificate: Walk | None = None


def highest_potential(
    wmap: WallSystemMap, basis: HomologyBasis, n: Sequence[int]
) -> HighestPotential:
    """Bellman-Ford from face 0 on the dual graph with the target's crossing costs."""
    n = tuple(int(x) for x in n)
    if len(n) != basis.rank:
        raise ValueError(f"target class must have {basis.rank} coordinates")
    ends = wmap.dual_graph.ends
    pairing = [sum(a * b for a, b in zip(n, w)) for w in basis.edge_weights]
    # arcs (from face, to face, cost, crossing): right -> left is direction +1
    arcs = []
    for e, (right, left) in enumerate(ends):
        arcs.append((right, left, 1 - pairing[e], (e, 1)))
        arcs.append((left, right, 1 + pairing[e], (e, -1)))
    faces = wmap.dual_graph.node_count
    g: list[int | None] = [None] * faces
    g[0] = 0
    parent: list[tuple[int, Crossing] | None] = [None] * faces
    for _ in range(faces):
        changed = None
        for u, v, cost, crossing in arcs:
            gu = g[u]
            if gu is not None and (g[v] is None or gu + cost < g[v]):
                g[v] = gu + cost
                parent[v] = (u, crossing)
                changed = v
        if changed is None:
            break
    else:
        return HighestPotential("outside", certificate=_parent_cycle(parent, changed, faces))

    tight = [(u, v) for u, v, cost, _ in arcs if g[u] + cost == g[v]]
    position = "boundary" if _has_cycle(faces, tight) else "interior"
    steps = tuple(pairing[e] + g[left] - g[right] for e, (right, left) in enumerate(ends))
    return HighestPotential(position, tuple(g), steps)


def _parent_cycle(parent: list, node: int, faces: int) -> Walk:
    """The cycle of the parent pointers reached from a node relaxed in round F.

    A cycle of Bellman-Ford parent pointers has negative cost.
    """
    for _ in range(faces):
        node = parent[node][0]
    walk = []
    here = node
    while True:
        here, crossing = parent[here]
        walk.append(crossing)
        if here == node:
            return tuple(reversed(walk))


def _has_cycle(faces: int, arcs: list[tuple[int, int]]) -> bool:
    """Whether the directed graph on the faces has a cycle (Kahn's algorithm)."""
    indegree = [0] * faces
    out: list[list[int]] = [[] for _ in range(faces)]
    for u, v in arcs:
        out[u].append(v)
        indegree[v] += 1
    ready = [f for f in range(faces) if indegree[f] == 0]
    removed = 0
    while ready:
        u = ready.pop()
        removed += 1
        for v in out[u]:
            indegree[v] -= 1
            if indegree[v] == 0:
                ready.append(v)
    return removed < faces


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
    coorientation is read off the potential ("eikonal" and "auto") or looked
    up in the enumeration ("lookup", a cross-check).  Either output is
    verified outright: Eulerian and of class n.
    """
    n = tuple(int(x) for x in n)
    if len(n) != basis.rank:
        raise ValueError(f"target class must have {basis.rank} coordinates")
    if method not in ("auto", "eikonal", "lookup"):
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
    candidate = Coorientation(potential.steps)
    if not is_eulerian(wmap, candidate) or class_of(wmap, candidate, basis) != n:
        raise InternalError(f"the highest extension of {n} does not realize it")
    return RealizationResult(candidate, n, "eikonal")


def _lookup(wmap: WallSystemMap, basis: HomologyBasis, n: Coords) -> RealizationResult:
    for coor in iter_eulerian(wmap):
        if class_of(wmap, coor, basis) == n:
            return RealizationResult(coor, n, "enumeration-fallback")
    raise NotRealizable(
        "outside-ball", f"no Eulerian coorientation has class {n}"
    )
