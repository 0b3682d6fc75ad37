"""Coorientations of a wall system and the Eulerian condition.

A coorientation picks a crossing direction for every edge; the sign is
+1 when that direction agrees with the reference direction right face ->
left face.  Eulerian coorientations are the ones that vanish on
boundaries, which is local: the kappa-weighted signs around every double
point cancel.  Each Eulerian coorientation evaluates on closed dual walks
through homology only, so it carries an integer cohomology class.

``eulerian_class_counts`` counts them and their classes with a
transfer-matrix DP and lists none; the reports that need only the count
and the class multiset use it.  ``enumerate_eulerian`` lists them, for
``coorientations --list``, the lookup realization and the tests.  Both
place the edges by one schedule, ``_schedule``, and prune by its bound:
a vertex's kappa-sum stays within its open darts.  Only listing meets
the enumeration cap, and ``coorientations`` applies it to a count too.
"""

from __future__ import annotations

import os
from collections import Counter, deque
from itertools import product
from operator import mul
from typing import Iterable, Iterator, Sequence

from .errors import InternalError, MalformedInput, NotBipartite, NotEulerian, ResourceLimit
from .homology import Coords, HomologyBasis, _check_basis_map, homology_basis
from .surface_map import _SIGN, Crossing, WallSystemMap, _Frozen, _in_order, _indexed, _record_text
from .surface_map import _records

ENUM_CAP_ENV = "WALLNORM_MAX_ENUM"
DEFAULT_ENUM_CAP = 1_000_000
# Most states a layer of eulerian_class_counts may hold, about 0.12 GB of dict.
# A layer is checked once built, and holds at most twice the states before it.
MAX_DP_STATES = 1_000_000


class Coorientation(_Frozen):
    """Signs in {+1, -1}, one per edge, relative to the reference direction."""

    __slots__ = ("signs", "__weakref__")

    def __init__(self, signs: tuple[int, ...]) -> None:
        if any(s not in (-1, 1) for s in signs):
            raise MalformedInput("coorientation signs must be +1 or -1")
        object.__setattr__(self, "signs", signs)

    @classmethod
    def _unchecked(cls, signs: tuple[int, ...]) -> "Coorientation":
        """An instance whose signs the caller already knows to be +1 or -1."""
        coor = object.__new__(cls)
        object.__setattr__(coor, "signs", signs)
        return coor

    def _key(self) -> tuple:
        return (self.signs,)

    def __repr__(self) -> str:
        return f"Coorientation(signs={self.signs!r})"

    def __len__(self) -> int:
        return len(self.signs)

    def reversed(self) -> "Coorientation":
        return Coorientation(tuple(-s for s in self.signs))

    def to_text(self) -> str:
        return _record_text("edge", (("+" if s > 0 else "-",) for s in self.signs))

    @classmethod
    def from_text(cls, text: str, edge_count: int) -> "Coorientation":
        """Read records ``edge <j>: <+|->``, one per edge (grammar in ``surface_map``)."""
        signs: dict[int, int] = {}
        for lineno, keyword, rest in _records(text, ("edge",)):
            j, sign = _indexed(lineno, keyword, rest, signs)
            if sign.strip() not in _SIGN:
                raise MalformedInput(f"line {lineno}: sign must be '+' or '-'")
            signs[j] = _SIGN[sign.strip()]
        return cls(tuple(_in_order(signs, edge_count, "edge")))


def is_eulerian(wmap: WallSystemMap, coor: Coorientation) -> bool:
    """True iff the kappa-weighted signs cancel around every vertex."""
    signs = coor.signs
    if len(signs) != wmap.edge_count:
        raise MalformedInput("coorientation length does not match the edge count")
    for (e0, k0), (e1, k1), (e2, k2), (e3, k3) in wmap.incidence:
        if k0 * signs[e0] + k1 * signs[e1] + k2 * signs[e2] + k3 * signs[e3]:
            return False
    return True


def vertex_kind(wmap: WallSystemMap, coor: Coorientation, v: int) -> str:
    """Local type at a double point: 'alternating', 'transparent', or 'none'.

    Transparent means the coorientation continues straight through along
    both strands; alternating means it flips on every strand.
    """
    t = [k * coor.signs[e] for e, k in wmap.incidence[v]]
    if sum(t) != 0:
        return "none"
    if t[0] + t[2] == 0 and t[1] + t[3] == 0:
        return "transparent"
    return "alternating"


class EulerianSet(_Frozen):
    """Materialized result of an exhaustive Eulerian enumeration.

    ``classes`` is not part of equality or hash.
    """

    __slots__ = ("count", "items", "classes", "__weakref__")

    def __init__(self, count: int, items: tuple[Coorientation, ...],
                 classes: "Counter[Coords]") -> None:
        set_field = object.__setattr__
        set_field(self, "count", count)
        set_field(self, "items", items)
        set_field(self, "classes", classes)

    def _key(self) -> tuple:
        return (self.count, self.items)

    def __repr__(self) -> str:
        return f"EulerianSet(count={self.count!r}, items={self.items!r}, classes={self.classes!r})"

    def __reduce__(self):
        return EulerianSet, (self.count, self.items, self.classes)

    def distinct_classes(self) -> tuple[Coords, ...]:
        return tuple(sorted(self.classes))


def _enum_cap(limit: int | None) -> int:
    """The cap: ``limit``, else a positive integer in ``WALLNORM_MAX_ENUM``, else the default."""
    if limit is not None:
        return limit
    env = os.environ.get(ENUM_CAP_ENV)
    if not env:
        return DEFAULT_ENUM_CAP
    try:
        cap = int(env)  # read as --max-enum is
        if cap > 0:
            return cap
    except ValueError:
        pass
    raise ValueError(f"{ENUM_CAP_ENV} must be a positive integer, not {env!r}")


def _over_cap(cap: int) -> ResourceLimit:
    return ResourceLimit(
        f"Eulerian enumeration exceeded the cap of {cap}; results would be partial"
    )


def _check_cap(count: int, limit: int | None = None) -> None:
    """Raise ResourceLimit for `count` items over the cap, as an enumeration finding them would."""
    cap = _enum_cap(limit)
    if count > cap:
        raise _over_cap(cap)


def _schedule(wmap: WallSystemMap) -> list[tuple[int, tuple[int, int], tuple[int, int]]]:
    """The edges in placing order, each with its tail and head ends as (vertex, open darts).

    The vertices come in BFS order of the wall graph from vertex 0; each
    appends its edges not yet placed, in rotation order, and a valid map is
    connected.  An end's open darts, those still unplaced at its vertex once
    the edge is placed, bound that vertex's kappa-sum; 0 closes it.
    """
    order: dict[int, None] = {}  # insertion-ordered set of the placed edges
    seen = {0}
    queue = deque([0])
    while queue:
        for d in wmap.rotations[queue.popleft()]:
            order.setdefault(wmap.dart_edge[d])
            w = wmap.dart_vertex[wmap.alpha[d]]
            if w not in seen:
                seen.add(w)
                queue.append(w)
    remaining = [4] * wmap.vertex_count
    schedule = []
    for e in order:
        tail, head = (wmap.dart_vertex[d] for d in wmap.edges[e])
        remaining[tail] -= 1
        remaining[head] -= 1
        schedule.append((e, (tail, remaining[tail]), (head, remaining[head])))
    return schedule


def _search_eulerian(wmap: WallSystemMap, cap: int) -> list[tuple[int, ...]]:
    """Sign vectors of all Eulerian coorientations, in search order.

    Iterative backtracking over the edges of ``_schedule``: a vertex's
    kappa-weighted sum must stay within its open darts, so it is zero once
    all four edges there are placed.
    """
    schedule = _schedule(wmap)
    depth = len(schedule)
    sums = [0] * wmap.vertex_count
    signs = [0] * wmap.edge_count
    found: list[tuple[int, ...]] = []
    pos = 0
    while pos >= 0:
        if pos == depth:
            if any(sums):
                raise InternalError("enumeration reached an unbalanced vertex")
            found.append(tuple(signs))
            if len(found) > cap:
                raise _over_cap(cap)
            pos -= 1
            continue
        e, (tail, open_tail), (head, open_head) = schedule[pos]
        s = signs[e]
        sums[tail] -= s  # take back the current sign, if any, before trying the next one
        sums[head] += s
        if s < 0:
            signs[e] = 0
            pos -= 1
            continue
        s = -1 if s else 1
        signs[e] = s
        sums[tail] += s
        sums[head] -= s
        if abs(sums[tail]) <= open_tail and abs(sums[head]) <= open_head:
            pos += 1
    return found


def iter_eulerian(wmap: WallSystemMap, limit: int | None = None) -> Iterator[Coorientation]:
    """Stream all Eulerian coorientations, lexicographically, + before -.

    The search backtracks over the edges in BFS order of the wall graph, so
    every vertex closes early and prunes there; the output order is the
    lexicographic order of the sign vectors, independent of the search
    order.  All items are materialized (up to the cap) and sorted before
    the first is yielded.  Raises ResourceLimit as soon as the search finds
    more items than the cap, so a partial result is never mistaken for a
    complete one.
    """
    found = _search_eulerian(wmap, _enum_cap(limit))
    found.sort(reverse=True)  # descending order on +-1 puts + first
    for signs in found:  # the search only places +-1
        yield Coorientation._unchecked(signs)


def enumerate_eulerian(
    wmap: WallSystemMap,
    basis: HomologyBasis | None = None,
    limit: int | None = None,
) -> EulerianSet:
    """Exhaustive, duplicate-free Eulerian enumeration with class multiset.

    Every call enumerates afresh and keeps nothing.  Raises InternalError
    for a basis of another map.
    """
    if basis is None:
        basis = homology_basis(wmap)
    _check_basis_map(wmap, basis)
    items = tuple(iter_eulerian(wmap, limit))
    return EulerianSet(len(items), items, Counter(classes_of(items, basis)))


def classes_of(items: Iterable[Coorientation], basis: HomologyBasis) -> Iterator[Coords]:
    """The classes of Eulerian items in their order, each the cycle-by-edge counts times its signs.

    Lazy: an item is classed only when its class is asked for.
    """
    counts = basis.cycle_edge_counts
    for coor in items:
        yield tuple(sum(map(mul, row, coor.signs)) for row in counts)


def eulerian_class_counts(
    wmap: WallSystemMap, basis: HomologyBasis
) -> tuple[int, "Counter[Coords]"]:
    """The number of Eulerian coorientations and their class multiset, by transfer matrix.

    Nothing is enumerated: this is Lieb's transfer matrix for ice models.
    The edges are placed by ``_schedule``, and a state holds the
    kappa-sums of the open vertices (touched, not yet closed) and the
    partial class sum_i counts[i][e] * s_e, mapped to how many sign
    prefixes reach it.  A vertex's sum must stay within its open darts,
    the pruning of the search, so a closing vertex must sum to 0.  The
    cost grows with the width of the open-vertex frontier, not with the
    number of items.

    Each state is packed into one int: a 4-bit slot per open vertex (the
    sum biased by 4; a slot is reused once its vertex closes), then one
    field per class coordinate, biased by its largest magnitude.  Every
    field stays within its width, so adding the packed step of a sign adds
    it field by field.

    The enumeration cap does not apply: nothing is listed.  A layer of
    more than MAX_DP_STATES states is refused with ResourceLimit while the
    DP runs, as soon as it is built.  Nothing is kept on the map or the
    basis.  Raises InternalError for a basis of another map.
    """
    _check_basis_map(wmap, basis)
    counts = basis.cycle_edge_counts
    # a slot per open vertex, taken on its first dart and freed when it closes
    slot_of: dict[int, int] = {}
    free: list[int] = []
    width = 0
    placed = []  # per edge in order: the slots it moves and their open darts after it
    for e, *ends in _schedule(wmap):
        for v, _ in ends:
            if v not in slot_of:
                if not free:
                    free.append(width)
                    width += 1
                slot_of[v] = free.pop()
        placed.append((e, [(slot_of[v], left) for v, left in ends]))
        for v, left in dict.fromkeys(ends):
            if not left:
                free.append(slot_of.pop(v))
    frontier_bits = 4 * width
    frontier_zero = sum(4 << 4 * k for k in range(width))
    fields = []  # per class coordinate: (shift, bias, mask)
    shift = frontier_bits
    for row in counts:
        bias = sum(map(abs, row))
        bits = (2 * bias).bit_length()
        fields.append((shift, bias, (1 << bits) - 1))
        shift += bits
    start = frontier_zero + sum(bias << sh for sh, bias, _ in fields)

    layer = {start: 1}
    for index, (e, ends) in enumerate(placed, start=1):
        (tail, open_tail), (head, open_head) = ends
        step = sum(row[e] << sh for row, (sh, _, _) in zip(counts, fields))
        step += (1 << 4 * tail) - (1 << 4 * head)
        # bit j of an allowed mask: a slot reading j = 4 + sum is within the open darts
        allow_tail = sum(1 << 4 + s for s in range(-open_tail, open_tail + 1))
        allow_head = sum(1 << 4 + s for s in range(-open_head, open_head + 1))
        tail_shift, head_shift = 4 * tail, 4 * head
        nxt: dict[int, int] = {}
        get = nxt.get
        for state, ways in layer.items():
            for new in (state + step, state - step):
                if (allow_tail >> (new >> tail_shift & 15) & 1
                        and allow_head >> (new >> head_shift & 15) & 1):
                    nxt[new] = get(new, 0) + ways
        if len(nxt) > MAX_DP_STATES:
            raise ResourceLimit(
                f"Eulerian class count reached {len(nxt)} states at edge {index} of "
                f"{len(placed)}, over the budget of {MAX_DP_STATES}"
            )
        layer = nxt

    classes: Counter[Coords] = Counter()
    frontier_mask = (1 << frontier_bits) - 1
    for state, ways in layer.items():
        if state & frontier_mask != frontier_zero:
            raise InternalError("the class count closed a vertex with a nonzero sum")
        classes[tuple((state >> sh & mask) - bias for sh, bias, mask in fields)] += ways
    return sum(classes.values()), classes


def support_coorientation(
    wmap: WallSystemMap, basis: HomologyBasis, direction: Sequence[int]
) -> tuple[Coorientation, Coords]:
    """An Eulerian coorientation whose class maximizes the pairing with `direction`.

    Eulerian coorientations are the orientations of the 4-valent wall graph
    with two darts out at every vertex: circulations under a totally
    unimodular network matrix.  Starting from the coorientation that runs
    along every curve, directed cycles of negative weight, the weight of an
    edge being its sign times c_e = sum_i direction_i * cycle_edge_counts[i][e],
    are found by Bellman-Ford and reversed, each raising the pairing by
    twice the weight.  With no such cycle left the circulation is optimal
    even among fractional ones, so the pairing is the support function of
    the dual ball.  Returns the coorientation and its class.
    """
    counts = basis.cycle_edge_counts
    if len(direction) != len(counts):
        raise ValueError(f"direction must have {len(counts)} coordinates")
    _check_basis_map(wmap, basis)
    costs = [sum(d * row[e] for d, row in zip(direction, counts)) for e in range(wmap.edge_count)]
    signs = [0] * wmap.edge_count
    for curve in wmap.curves:  # each curve is a closed trail, so this start is Eulerian
        for d in curve.darts:
            signs[wmap.dart_edge[d]] = wmap.kappa(d)
    ends = [(wmap.dart_vertex[t], wmap.dart_vertex[h]) for t, h in wmap.edges]
    nodes = wmap.vertex_count
    while True:
        # arcs along the current orientation: (from, to, weight, edge)
        arcs = [
            (u, v, c, e) if s > 0 else (v, u, -c, e)
            for e, ((u, v), c, s) in enumerate(zip(ends, costs, signs))
        ]
        dist = [0] * nodes  # a virtual source reaches every vertex at weight 0
        parent: list[tuple[int, int] | None] = [None] * nodes
        cycle = None
        while cycle is None:  # Bellman-Ford rounds
            changed = False
            for u, v, w, e in arcs:
                if dist[u] + w < dist[v]:
                    dist[v] = dist[u] + w
                    parent[v] = (u, e)
                    changed = True
            if not changed:
                coor = Coorientation._unchecked(tuple(signs))
                return coor, next(classes_of((coor,), basis))
            cycle = _parent_cycle(parent)
        for e in cycle:
            signs[e] = -signs[e]


def _parent_cycle(parent: list) -> list | None:
    """The labels of a cycle of Bellman-Ford parent pointers (u, label), or None.

    Every such cycle has negative weight; one shows up by round n when a
    negative cycle exists, usually much earlier.  Callers may ask mid-run:
    ``support_coorientation`` after each round, ``eikonal._potential`` once
    face 0's label has gone negative, when a cycle is sure to be there.
    """
    state = [0] * len(parent)  # 0 unseen, 1 on the current chain, 2 done
    for start in range(len(parent)):
        chain = []
        node = start
        while node is not None and not state[node]:
            state[node] = 1
            chain.append(node)
            node = parent[node][0] if parent[node] else None
        if node is not None and state[node] == 1:
            labels = []
            here = node
            while True:
                here, label = parent[here]
                labels.append(label)
                if here == node:
                    return labels
        for node in chain:
            state[node] = 2
    return None


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
