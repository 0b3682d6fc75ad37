"""Integer homology of the dual cell structure of a wall system.

The dual CW structure has one 0-cell per face of the wall system, one
1-cell per edge (the dual link), and one 2-cell per vertex.  Closed dual
walks model curves transverse to the walls, so first homology computed
here is the natural home for evaluating coorientations.

A basis consists of 2g closed dual walks b_1..b_2g together with integer
cocycle weight vectors w_1..w_2g on the links such that w_i(b_j) is the
identity pairing and every w_i vanishes on the boundary of every 2-cell.
The automatic basis is a tree-cotree decomposition: a spanning tree of
the dual graph, a spanning tree (the cotree) of the wall graph on the
edges off it, and 2g edges in neither.  Each such edge gives one b_i, its
fundamental loop at face 0 of the tree, and one w_i, its fundamental
cycle in the cotree.  Coordinates reported anywhere in the package are
relative to the active basis; they are read through the cocycles, so the
shape of a walk matters only through its crossings.
"""

from __future__ import annotations

from functools import cached_property
from operator import index
from typing import NamedTuple, Sequence

from .errors import InternalError, MalformedInput, NotABasis, TorsionDetected
from .snf import unimodular_inverse
from .surface_map import Crossing, Walk, WallSystemMap, _Frozen, reverse_walk
from .surface_map import _SIGN, _bfs_tree, _in_order, _indexed, _path_to_root, _record_text
from .surface_map import _records

Coords = tuple[int, ...]


class BoundaryMatrices(NamedTuple):
    """Cellular boundary maps of the dual CW structure.

    ``d1`` (faces x edges) sends a link to head minus tail in the reference
    direction right face -> left face.  ``d2`` (edges x vertices) sends the
    2-cell at a vertex to the kappa-weighted sum of its incident links,
    kappa being +1 on tail darts and -1 on head darts; around every double
    point these weights make two links enter and two leave.
    """

    d1: tuple[tuple[int, ...], ...]
    d2: tuple[tuple[int, ...], ...]


def boundary_matrices(wmap: WallSystemMap) -> BoundaryMatrices:
    dual = wmap.dual_graph
    f, e, v = dual.node_count, wmap.edge_count, wmap.vertex_count
    d1 = [[0] * e for _ in range(f)]
    for j, (right, left) in enumerate(dual.ends):
        d1[left][j] += 1
        d1[right][j] -= 1
    d2 = [[0] * v for _ in range(e)]
    for vertex, darts in enumerate(wmap.incidence):
        for edge, kappa in darts:
            d2[edge][vertex] += kappa
    return BoundaryMatrices(tuple(map(tuple, d1)), tuple(map(tuple, d2)))


class HomologyBasis(_Frozen):
    """2g dual cycles with dual cocycle weights for coordinate extraction."""

    # _memo keeps the dual ball for the basis's lifetime (see normball.dual_ball);
    # it is not part of equality, hash or repr.  The dict holds the cached properties.
    __slots__ = ("wmap", "cycles", "cocycles", "label", "_memo", "__dict__", "__weakref__")

    def __init__(
        self,
        wmap: WallSystemMap,
        cycles: tuple[Walk, ...],
        cocycles: tuple[tuple[int, ...], ...],
        label: str = "auto",
    ) -> None:
        set_field = object.__setattr__
        set_field(self, "wmap", wmap)
        set_field(self, "cycles", cycles)
        set_field(self, "cocycles", cocycles)
        set_field(self, "label", label)
        set_field(self, "_memo", {})

    def _key(self) -> tuple:
        return (self.wmap, self.cycles, self.cocycles, self.label)

    def __repr__(self) -> str:
        return (f"HomologyBasis(wmap={self.wmap!r}, cycles={self.cycles!r}, "
                f"cocycles={self.cocycles!r}, label={self.label!r})")

    @property
    def rank(self) -> int:
        return len(self.cycles)

    @cached_property
    def edge_weights(self) -> tuple[Coords, ...]:
        """Per edge, the vector of all cocycle weights (used as cover deck steps)."""
        return tuple(
            tuple(w[e] for w in self.cocycles) for e in range(self.wmap.edge_count)
        )

    @cached_property
    def cycle_edge_counts(self) -> tuple[Coords, ...]:
        """Row i: the signed number of times cycle i crosses each edge.

        The class of an Eulerian coorientation is this matrix applied to its
        signs.
        """
        rows = []
        for cycle in self.cycles:
            self.wmap.dual_graph.check_closed(cycle)
            row = [0] * self.wmap.edge_count
            for e, direction in cycle:
                row[e] += direction
            rows.append(tuple(row))
        return tuple(rows)

    @cached_property
    def moves(self) -> tuple[tuple[int, int, Coords, Crossing], ...]:
        """Directed wall crossings as cover moves: (from face, to face, class delta, crossing).

        Per edge, right -> left (delta = the edge weights) comes before
        left -> right (the negated weights).
        """
        out = []
        for e, (right, left) in enumerate(self.wmap.dual_graph.ends):
            w = self.edge_weights[e]
            out.append((right, left, w, (e, +1)))
            out.append((left, right, tuple(-x for x in w), (e, -1)))
        return tuple(out)

    @cached_property
    def signature(self) -> str:
        import hashlib

        payload = repr((self.wmap.digest, self.cocycles)).encode()
        return hashlib.sha256(payload).hexdigest()[:12]


def _class_coords(a: Sequence[int], rank: int, name: str = "class") -> Coords:
    """The rank integer coordinates of a class, or ValueError.

    ``operator.index`` refuses a coordinate that is not an integer (a float,
    a Fraction), which ``int`` would truncate without a word.
    """
    try:
        coords = tuple(map(index, a))
    except TypeError:
        raise ValueError(f"{name} coordinates must be integers, not {a!r}") from None
    if len(coords) != rank:
        raise ValueError(f"{name} must have {rank} coordinates")
    return coords


def _spanning_tree(
    ends: Sequence[tuple[int, int]], count: int, edges: Sequence[int]
) -> tuple[set[int], dict[int, tuple[int, Crossing]]]:
    """Greedy spanning tree on ``count`` nodes; returns tree edges and parent links.

    Each of ``edges`` in turn joins the nodes ``ends[e] = (a, b)`` if they
    lie in two parts so far.  The tree is oriented from node 0 outwards:
    a node's link is its parent and the crossing from the parent to it,
    direction +1 when that crossing runs a -> b.
    """
    part = list(range(count))

    def find(x: int) -> int:
        while part[x] != x:
            part[x] = part[part[x]]
            x = part[x]
        return x

    tree: set[int] = set()
    moves: list[list[tuple[int, int, int]]] = [[] for _ in range(count)]
    for e in edges:
        a, b = ends[e]
        root_a, root_b = find(a), find(b)
        if root_a != root_b:
            part[root_a] = root_b
            tree.add(e)
            moves[a].append((e, +1, b))
            moves[b].append((e, -1, a))
    return tree, _bfs_tree(moves, 0)


def homology_basis(wmap: WallSystemMap) -> HomologyBasis:
    """Deterministic integer basis of H_1 with dual cocycle weights, by tree-cotree.

    The tree is the greedy spanning tree of the dual graph.  The edges off
    it, in index order, are contracted one by one on the double points
    when they join two parts; those form the cotree, and the 2g edges left
    over are the generators.  Generator e's cycle is its fundamental loop
    at face 0: the tree path to e's right face, e crossed right to left,
    the tree path back from its left face.  Its cocycle is its fundamental
    cycle in the cotree: 1 on e, and on the cotree path from e's head
    double point to its tail's, +1 on each edge walked tail -> head and -1
    on each edge walked head -> tail; it vanishes on every 2-cell.

    This is the basis a Smith normal form of the off-tree rows of d2 gives
    (the matrix is a directed incidence matrix, so every pivot is +-1):
    a contracted edge swaps places with the first edge passed over, as
    the Smith pivot row does with the zero row above it, so the
    generators come out in the Smith order and basis signatures and
    reports keep their values.  Raises TorsionDetected unless 2g edges
    are left over.
    """
    dual = wmap.dual_graph
    tree, parents = _spanning_tree(dual.ends, dual.node_count, range(wmap.edge_count))
    order = [e for e in range(wmap.edge_count) if e not in tree]
    vertex_of = wmap.dart_vertex
    ends = [(vertex_of[tail], vertex_of[head]) for tail, head in wmap.edges]
    cotree, coparents = _spanning_tree(ends, wmap.vertex_count, order)
    placed = 0
    for k, e in enumerate(order):
        if e in cotree:
            order[placed], order[k] = e, order[placed]
            placed += 1
    generators = order[placed:]
    if len(generators) != 2 * wmap.genus:
        raise TorsionDetected(
            f"free rank {len(generators)} does not match 2g = {2 * wmap.genus}"
        )

    cycles = []
    cocycles = []
    for e in generators:
        right, left = dual.ends[e]
        cycles.append(reverse_walk(_path_to_root(parents, right)) + ((e, 1),)
                      + _path_to_root(parents, left))
        weights = [0] * wmap.edge_count
        weights[e] = 1
        tail, head = ends[e]
        # head -> 0, then 0 -> tail: the stretch the two paths share cancels
        for c, direction in _path_to_root(coparents, head):
            weights[c] += direction
        for c, direction in _path_to_root(coparents, tail):
            weights[c] -= direction
        cocycles.append(tuple(weights))

    basis = HomologyBasis(wmap, tuple(cycles), tuple(cocycles), label="auto")
    _check_basis(basis)
    return basis


def _check_basis(basis: HomologyBasis) -> None:
    """Raise InternalError unless the cocycles vanish on every 2-cell and pair to the identity.

    A 2-cell's boundary is its vertex's four darts, each on its edge with
    weight kappa: ``WallSystemMap.incidence``, as in ``boundary_matrices``.
    """
    incidence = basis.wmap.incidence
    for i, w in enumerate(basis.cocycles):
        for v, darts in enumerate(incidence):
            if sum(w[e] * kappa for e, kappa in darts):
                raise InternalError(f"cocycle {i} does not vanish on 2-cell {v}")
    for i in range(basis.rank):
        for j in range(basis.rank):
            value = _walk_weight(basis.cocycles[i], basis.cycles[j])
            if value != (1 if i == j else 0):
                raise InternalError("basis pairing is not the identity")


def _walk_weight(weights: Sequence[int], walk: Walk) -> int:
    return sum(direction * weights[e] for e, direction in walk)


def class_of_walk(walk: Sequence[Crossing], basis: HomologyBasis) -> Coords:
    """Coordinates of a closed dual walk in the active basis."""
    walk = tuple(walk)
    basis.wmap.dual_graph.check_closed(walk)
    return tuple(_walk_weight(w, walk) for w in basis.cocycles)


def gamma_parity(wmap: WallSystemMap, basis: HomologyBasis) -> Coords:
    """The mod-2 crossing class of the wall system against the basis cycles."""
    _check_basis_map(wmap, basis)
    return tuple(len(b) % 2 for b in basis.cycles)


def _check_basis_map(wmap: WallSystemMap, basis: HomologyBasis) -> None:
    """Raise InternalError unless the basis was built on this map (or an equal one)."""
    if basis.wmap is not wmap and basis.wmap != wmap:
        raise InternalError("the basis belongs to a different map")


def set_user_basis(wmap: WallSystemMap, walks: Sequence[Sequence[Crossing]]) -> HomologyBasis:
    """Adopt the given closed walks as the basis, with recomputed cocycles.

    Accepted iff the pairing matrix against the computed basis is
    unimodular; raises NotABasis otherwise.
    """
    computed = homology_basis(wmap)
    walks = tuple(tuple(w) for w in walks)
    if len(walks) != computed.rank:
        raise NotABasis(f"expected {computed.rank} cycles, got {len(walks)}")
    pairing = [list(class_of_walk(w, computed)) for w in walks]  # row j = class of walk j
    matrix = [[pairing[j][i] for j in range(len(walks))] for i in range(computed.rank)]
    inverse = unimodular_inverse(matrix)
    if inverse is None:
        raise NotABasis("pairing matrix of the proposed cycles is not unimodular")
    cocycles = []
    for i in range(computed.rank):
        weights = [0] * wmap.edge_count
        for k in range(computed.rank):
            c = inverse[i][k]
            if c:
                for e in range(wmap.edge_count):
                    weights[e] += c * computed.cocycles[k][e]
        cocycles.append(tuple(weights))
    basis = HomologyBasis(wmap, walks, tuple(cocycles), label="user")
    _check_basis(basis)
    return basis


def parse_basis_file(text: str) -> list[Walk]:
    """Parse a basis file: records ``cycle <i>: <link><+|-> ...`` (grammar in ``surface_map``)."""
    cycles: dict[int, Walk] = {}
    for lineno, keyword, rest in _records(text, ("cycle",)):
        i, fields = _indexed(lineno, keyword, rest, cycles)
        try:
            cycles[i] = tuple((int(t[:-1]), _SIGN[t[-1]]) for t in fields.split())
        except (KeyError, ValueError):
            raise MalformedInput(f"line {lineno}: crossings must read <link>+ or <link>-, "
                                 f"got {fields.strip()!r}") from None
    return _in_order(cycles, len(cycles), "cycle")


def format_basis_file(walks: Sequence[Walk]) -> str:
    return _record_text("cycle", ([f"{e}{'+' if d > 0 else '-'}" for e, d in w] for w in walks))


def basis_from_file(wmap: WallSystemMap, text: str) -> HomologyBasis:
    return set_user_basis(wmap, parse_basis_file(text))
