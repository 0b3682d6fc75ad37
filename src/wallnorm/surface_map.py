"""Rotation-system encoding of wall systems on closed oriented surfaces.

A wall system (a self-transverse collection of closed curves with simple
crossings) is stored combinatorially: every double point is a vertex
carrying an ordered quadruple of darts, and every edge pairs a tail dart
with a head dart.  The surface is implicit in the data; faces are orbits
of the face permutation, and validation rejects anything that does not
describe a connected closed oriented surface of genus at least one.

Conventions fixed here and used by every other module:

* ``sigma`` maps a dart to the next dart in its vertex rotation,
* ``alpha`` swaps the two darts of an edge,
* the face permutation is ``phi = sigma o alpha``; the face orbit that
  contains the tail dart of an edge is the *left* face of that edge
  (the reference orientation of the edge runs tail -> head),
* dual-graph links are directed right face -> left face, and all signs
  downstream (coorientations, cocycle weights) refer to that direction.

Maps are immutable after construction and safe to share between threads.

Wall, basis and coorientation files share one record grammar, read here.
Text after ``#`` and blank lines are ignored; every other line is a
record ``<keyword> <index>: <fields>``, apart from the wall file's
``vertices <V>`` header.  Each index appears once, the indices of a
keyword are exactly ``0..n-1``, and integers are ASCII decimal with an
optional sign (a record line with a non-ASCII character or ``_`` is
refused).  Wall-file records: ``vertex <i>: <d0> <d1> <d2> <d3>`` and
``edge <j>: <dTail> <dHead>``.
"""

from __future__ import annotations

import hashlib
from functools import cached_property
from operator import index
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import BadDegree, BadEuler, DartMultiplicity, MalformedInput, OpenWalk

# A crossing of a dual link: (edge id, +1) crosses right face -> left face,
# (edge id, -1) the other way.  A walk is a chained sequence of crossings.
Crossing = tuple[int, int]
Walk = tuple[Crossing, ...]
# The file token of a crossing direction or a coorientation sign.
_SIGN = {"+": 1, "-": -1}


class _Frozen:
    """Base of the records that are not tuples: assignment and deletion raise AttributeError.

    A subclass lists its fields in ``__slots__``, with ``__weakref__`` and,
    when it has a cached property, ``__dict__``; it sets them in
    ``__init__`` with ``object.__setattr__``.  It defines ``_key``, the
    tuple of the fields that equality and hash compare; a record is
    pickled as its class called on its key, so one with a field outside
    the key also defines ``__reduce__``.
    """

    __slots__ = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __reduce__(self):
        return self.__class__, self._key()


class Face(_Frozen):
    """A complementary disc, given by the cyclic dart sequence of its boundary."""

    __slots__ = ("darts", "__weakref__")

    def __init__(self, darts: tuple[int, ...]) -> None:
        object.__setattr__(self, "darts", darts)

    def _key(self) -> tuple:
        return (self.darts,)

    def __repr__(self) -> str:
        return f"Face(darts={self.darts!r})"

    def __len__(self) -> int:
        return len(self.darts)


class Curve(NamedTuple):
    """One unoriented immersed circle of the wall system.

    ``darts`` is the straight-ahead orbit of the smallest dart on the curve
    (one of the two traversal orientations).  ``support`` holds the darts of
    both orientations, two per edge, so supports partition the dart set.
    """

    darts: tuple[int, ...]
    support: frozenset[int]
    edges: tuple[int, ...]


class DualGraph(_Frozen):
    """Dual graph of the wall system: one node per face, one link per edge.

    ``ends[e]`` is the pair (right face, left face); the reference direction
    of link ``e`` runs right -> left.  Self-links are allowed.
    """

    __slots__ = ("node_count", "ends", "__dict__", "__weakref__")  # dict: cached moves

    def __init__(self, node_count: int, ends: tuple[tuple[int, int], ...]) -> None:
        set_field = object.__setattr__
        set_field(self, "node_count", node_count)
        set_field(self, "ends", ends)

    def _key(self) -> tuple:
        return (self.node_count, self.ends)

    def __repr__(self) -> str:
        return f"DualGraph(node_count={self.node_count!r}, ends={self.ends!r})"

    @cached_property
    def moves(self) -> tuple[tuple[tuple[int, int, int], ...], ...]:
        """Per node, the directed crossings leaving it: (edge, direction, target)."""
        out: list[list[tuple[int, int, int]]] = [[] for _ in range(self.node_count)]
        for e, (right, left) in enumerate(self.ends):
            out[right].append((e, +1, left))
            out[left].append((e, -1, right))
        return tuple(tuple(sorted(m)) for m in out)

    def degree(self, node: int) -> int:
        return len(self.moves[node])

    def crossing_ends(self, edge: int, direction: int) -> tuple[int, int]:
        right, left = self.ends[edge]
        return (right, left) if direction > 0 else (left, right)

    def walk_faces(self, walk: Sequence[Crossing]) -> tuple[int, ...]:
        """Face sequence visited by a walk; raises OpenWalk if crossings do not chain."""
        if not walk:
            return ()
        faces = []
        here = None
        for k, (edge, direction) in enumerate(walk):
            if not 0 <= edge < len(self.ends) or direction not in (-1, +1):
                raise OpenWalk(f"crossing {k} is not a valid directed link: {(edge, direction)}")
            src, dst = self.crossing_ends(edge, direction)
            if here is None:
                faces.append(src)
            elif src != here:
                raise OpenWalk(f"crossing {k} starts at face {src}, expected {here}")
            here = dst
            faces.append(dst)
        return tuple(faces)

    def check_closed(self, walk: Sequence[Crossing]) -> None:
        faces = self.walk_faces(walk)
        if faces and faces[0] != faces[-1]:
            raise OpenWalk(f"walk ends at face {faces[-1]} but started at face {faces[0]}")

    def shortest_path(self, src: int, dst: int) -> Walk:
        """A shortest walk src -> dst (deterministic BFS, smallest links first)."""
        parents = _bfs_tree(self.moves, src)
        if dst not in parents:
            raise OpenWalk(f"no dual path from face {src} to face {dst}")
        return reverse_walk(_path_to_root(parents, dst))


def _bfs_tree(
    moves: Sequence[Sequence[tuple[int, int, int]]], root: int
) -> dict[int, tuple[int, Crossing]]:
    """Breadth-first parent links from root along the moves (link, direction, target).

    Each node's moves are tried in their listed order.  A reached node maps
    to its parent and the crossing from the parent to it; the root is its
    own parent.
    """
    parents: dict[int, tuple[int, Crossing]] = {root: (root, (0, 0))}
    queue = [root]
    for node in queue:
        for link, direction, other in moves[node]:
            if other not in parents:
                parents[other] = (node, (link, direction))
                queue.append(other)
    return parents


def _path_to_root(parents: dict[int, tuple[int, Crossing]], node: int) -> Walk:
    """The walk from node to the root inside a tree of parent links."""
    crossings = []
    while parents[node][0] != node:
        node, (link, direction) = parents[node]
        crossings.append((link, -direction))
    return tuple(crossings)


def reverse_walk(walk: Sequence[Crossing]) -> Walk:
    return tuple((edge, -direction) for edge, direction in reversed(walk))


def concat_closed_walks(dual: DualGraph, *walks: Sequence[Crossing]) -> Walk:
    """One closed walk whose class is the sum of the given closed walks.

    Walks based at different faces are reached through a shortest connector
    path walked there and back, which contributes nothing to the class.
    """
    pieces: list[Crossing] = []
    base = None
    for walk in walks:
        walk = tuple(walk)
        if not walk:
            continue
        dual.check_closed(walk)
        start = dual.crossing_ends(*walk[0])[0]
        if base is None:
            base = start
        connector = dual.shortest_path(base, start)
        pieces.extend(connector)
        pieces.extend(walk)
        pieces.extend(reverse_walk(connector))
    return tuple(pieces)


class WallSystemMap:
    """Validated combinatorial map of a wall system filling a closed surface."""

    def __init__(
        self,
        vertex_count: int,
        rotations: Iterable[Sequence[int]],
        edges: Iterable[Sequence[int]],
    ):
        try:
            self.vertex_count = index(vertex_count)
            self.rotations = tuple(tuple(map(index, r)) for r in rotations)
            self.edges = tuple(tuple(map(index, e)) for e in edges)
        except TypeError:
            raise MalformedInput("the vertex count and every dart id must be integers") from None
        self._validate()

    # -- validation -------------------------------------------------------

    def _validate(self) -> None:
        v = self.vertex_count
        if v < 1:
            raise MalformedInput("a wall system needs at least one vertex (V >= 1)")
        if len(self.rotations) != v:
            raise MalformedInput(f"expected {v} vertex rotations, got {len(self.rotations)}")
        for i, rot in enumerate(self.rotations):
            if len(rot) != 4:
                raise BadDegree(f"vertex {i} lists {len(rot)} darts; every vertex has degree 4")
        self._each_dart_once(self.rotations, "rotations")
        if len(self.edges) != 2 * v:
            raise MalformedInput(f"expected E = 2V = {2 * v} edges, got {len(self.edges)}")
        for j, pair in enumerate(self.edges):
            if len(pair) != 2:
                raise MalformedInput(f"edge {j} must pair exactly two darts")
        self._each_dart_once(self.edges, "edges")
        if not self._is_connected():
            raise MalformedInput("the map is not connected; it does not describe one surface")
        chi = self.euler_characteristic
        if chi > 0:
            raise BadEuler(f"Euler characteristic {chi} > 0: genus-0 wall systems are not supported")

    def _each_dart_once(self, groups: tuple[tuple[int, ...], ...], what: str) -> None:
        n = 4 * self.vertex_count
        seen = [0] * n
        for group in groups:
            for d in group:
                if not 0 <= d < n:
                    raise MalformedInput(f"dart id {d!r} out of range [0, {n})")
                seen[d] += 1
        bad = [d for d, c in enumerate(seen) if c != 1]
        if bad:
            raise DartMultiplicity(f"{what} do not use each dart exactly once (darts {bad})")

    def _is_connected(self) -> bool:
        n = 4 * self.vertex_count
        sigma, alpha = self.sigma, self.alpha
        seen = {0}
        stack = [0]
        while stack:
            d = stack.pop()
            for nd in (sigma[d], alpha[d]):
                if nd not in seen:
                    seen.add(nd)
                    stack.append(nd)
        return len(seen) == n

    # -- permutations and incidences ---------------------------------------

    @cached_property
    def sigma(self) -> tuple[int, ...]:
        """Next dart in the vertex rotation."""
        out = [0] * (4 * self.vertex_count)
        for rot in self.rotations:
            for k in range(4):
                out[rot[k]] = rot[(k + 1) % 4]
        return tuple(out)

    @cached_property
    def alpha(self) -> tuple[int, ...]:
        """The other dart of the same edge."""
        out = [0] * (4 * self.vertex_count)
        for tail, head in self.edges:
            out[tail] = head
            out[head] = tail
        return tuple(out)

    @cached_property
    def dart_vertex(self) -> tuple[int, ...]:
        out = [0] * (4 * self.vertex_count)
        for i, rot in enumerate(self.rotations):
            for d in rot:
                out[d] = i
        return tuple(out)

    @cached_property
    def dart_edge(self) -> tuple[int, ...]:
        out = [0] * (4 * self.vertex_count)
        for j, (tail, head) in enumerate(self.edges):
            out[tail] = j
            out[head] = j
        return tuple(out)

    @cached_property
    def dart_is_tail(self) -> tuple[bool, ...]:
        out = [False] * (4 * self.vertex_count)
        for tail, _ in self.edges:
            out[tail] = True
        return tuple(out)

    def kappa(self, dart: int) -> int:
        """+1 for tail darts, -1 for head darts (vertex boundary convention)."""
        return 1 if self.dart_is_tail[dart] else -1

    @cached_property
    def incidence(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Per vertex, (edge, kappa) of each of its darts in rotation order.

        A vertex's kappa-weighted sums (its Eulerian condition, its row of
        the 2-cell boundary, a cocycle's value on its 2-cell) read this.
        """
        edge_of, kappa = self.dart_edge, self.kappa
        return tuple(tuple((edge_of[d], kappa(d)) for d in rot) for rot in self.rotations)

    # -- counts -------------------------------------------------------------

    @property
    def edge_count(self) -> int:
        return 2 * self.vertex_count

    @property
    def dart_count(self) -> int:
        return 4 * self.vertex_count

    @cached_property
    def euler_characteristic(self) -> int:
        return self.vertex_count - self.edge_count + len(self.faces)

    @cached_property
    def genus(self) -> int:
        """(2 - chi) / 2: a connected rotation system's chi is even, and chi > 0 is refused."""
        return (2 - self.euler_characteristic) // 2

    # -- orbits -------------------------------------------------------------

    @cached_property
    def _face_orbits(self) -> tuple[list[tuple[int, ...]], tuple[int, ...]]:
        sigma = self.sigma
        return _orbits([sigma[a] for a in self.alpha])  # phi = sigma o alpha

    @cached_property
    def faces(self) -> tuple[Face, ...]:
        """Orbits of phi = sigma o alpha, each listed from its smallest dart."""
        return tuple(map(Face, self._face_orbits[0]))

    @cached_property
    def face_of_dart(self) -> tuple[int, ...]:
        return self._face_orbits[1]

    @cached_property
    def curves(self) -> tuple[Curve, ...]:
        """Unoriented constituent curves: paired orbits of d -> sigma^2(alpha(d))."""
        sigma, alpha = self.sigma, self.alpha
        orbits, orbit_of = _orbits([sigma[sigma[a]] for a in alpha])
        out = []
        used = set()
        for i, orbit in enumerate(orbits):
            if i in used:
                continue
            j = orbit_of[alpha[orbit[0]]]
            # The reversal of an orbit is the orbit of the partner darts; a
            # 4-valent rotation system never folds an orbit onto its own
            # reversal, which the pairing below relies on.
            if j == i:
                raise MalformedInput("straight-ahead orbit equals its own reversal")
            used.add(i)
            used.add(j)
            support = frozenset(orbit) | frozenset(orbits[j])
            edges = tuple(sorted({self.dart_edge[d] for d in support}))
            out.append(Curve(orbit, support, edges))
        return tuple(out)

    @cached_property
    def dual_graph(self) -> DualGraph:
        face_of = self.face_of_dart
        ends = []
        for tail, head in self.edges:
            left = face_of[tail]
            right = face_of[head]
            ends.append((right, left))
        return DualGraph(len(self.faces), tuple(ends))

    # -- serialization -------------------------------------------------------

    @cached_property
    def canonical_text(self) -> str:
        return (f"vertices {self.vertex_count}\n" + _record_text("vertex", self.rotations)
                + _record_text("edge", self.edges))

    @cached_property
    def digest(self) -> str:
        return hashlib.sha256(self.canonical_text.encode()).hexdigest()[:12]

    # -- equality -------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WallSystemMap):
            return NotImplemented
        return (
            self.vertex_count == other.vertex_count
            and self.rotations == other.rotations
            and self.edges == other.edges
        )

    def __hash__(self) -> int:
        return hash((self.vertex_count, self.rotations, self.edges))

    def __repr__(self) -> str:
        return (
            f"WallSystemMap(V={self.vertex_count}, E={self.edge_count}, "
            f"F={len(self.faces)}, genus={self.genus})"
        )


def _orbits(step: Sequence[int]) -> tuple[list[tuple[int, ...]], tuple[int, ...]]:
    """The orbits of the permutation d -> step[d], and each element's orbit index.

    Orbits come in the order of their smallest elements, each listed from
    that element.
    """
    orbit_of = [-1] * len(step)
    orbits: list[tuple[int, ...]] = []
    for start in range(len(step)):
        if orbit_of[start] < 0:
            orbit = []
            d = start
            while orbit_of[d] < 0:
                orbit_of[d] = len(orbits)
                orbit.append(d)
                d = step[d]
            orbits.append(tuple(orbit))
    return orbits, tuple(orbit_of)


def _record_text(keyword: str, rows: Iterable[Iterable[object]]) -> str:
    """Records ``<keyword> <i>: <fields>``, one line per row, in row order."""
    return "".join(f"{keyword} {i}: {' '.join(map(str, row))}\n" for i, row in enumerate(rows))


def _records(text: str, keywords: tuple[str, ...]) -> Iterator[tuple[int, str, str]]:
    """(line number, keyword, rest) of each record line, comments cut and blanks skipped."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            if not line.isascii() or "_" in line:
                raise MalformedInput(f"line {lineno}: non-ASCII character or '_' in {line!r}")
            keyword, _, rest = line.partition(" ")
            if keyword not in keywords:
                raise MalformedInput(f"line {lineno}: unknown directive {keyword!r}")
            yield lineno, keyword, rest


def _ints(fields: str, lineno: int) -> list[int]:
    tokens = fields.split()
    try:
        return [int(t) for t in tokens]
    except ValueError:
        raise MalformedInput(f"non-integer token in line {lineno}: {' '.join(tokens)!r}") from None


def _one(part: str, lineno: int, what: str) -> int:
    values = _ints(part, lineno)
    if len(values) != 1:
        raise MalformedInput(f"line {lineno}: expected one {what}, got {' '.join(part.split())!r}")
    return values[0]


def _indexed(lineno: int, keyword: str, rest: str, store: dict[int, object]) -> tuple[int, str]:
    """The index of a ``<index>: <fields>`` record not yet in store, and its fields."""
    index_part, colon, fields = rest.partition(":")
    if not colon:
        raise MalformedInput(f"line {lineno}: missing ':' in {keyword} line")
    i = _one(index_part, lineno, f"{keyword} index")
    if i in store:
        raise MalformedInput(f"line {lineno}: repeated {keyword} {i}")
    return i, fields


def _in_order(store: dict[int, object], count: int, what: str) -> list:
    """The stored values in index order, which must be exactly 0..count-1."""
    # the counts first: a header alone must not make its count of indices
    if len(store) != max(count, 0) or not all(i in store for i in range(count)):
        raise MalformedInput(f"{what} indices must be exactly 0..{count - 1}")
    return [store[i] for i in range(count)]


def parse_wall_system(text: str) -> WallSystemMap:
    """Parse a wall file (grammar in the module docstring)."""
    vertex_count = None
    rotations: dict[int, tuple[int, ...]] = {}
    edges: dict[int, tuple[int, ...]] = {}
    for lineno, head, rest in _records(text, ("vertices", "vertex", "edge")):
        if head == "vertices":
            if vertex_count is not None:
                raise MalformedInput(f"line {lineno}: repeated 'vertices' line")
            vertex_count = _one(rest, lineno, "vertex count")
            continue
        store = rotations if head == "vertex" else edges
        i, fields = _indexed(lineno, head, rest, store)
        darts = tuple(_ints(fields, lineno))
        if head == "vertex" and len(darts) != 4:
            raise BadDegree(f"line {lineno}: vertex {i} lists {len(darts)} darts")
        if head == "edge" and len(darts) != 2:
            raise MalformedInput(f"line {lineno}: edge {i} must list two darts")
        store[i] = darts
    if vertex_count is None:
        raise MalformedInput("missing 'vertices <V>' line")
    return WallSystemMap(
        vertex_count,
        _in_order(rotations, vertex_count, "vertex"),
        _in_order(edges, 2 * vertex_count, "edge"),
    )
