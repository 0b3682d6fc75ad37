"""Integer homology of the dual cell structure of a wall system.

The dual CW structure has one 0-cell per face of the wall system, one
1-cell per edge (the dual link), and one 2-cell per vertex.  Closed dual
walks model curves transverse to the walls, so first homology computed
here is the natural home for evaluating coorientations.

A basis consists of 2g closed dual walks b_1..b_2g together with integer
cocycle weight vectors w_1..w_2g on the links such that w_i(b_j) is the
identity pairing and every w_i vanishes on the boundary of every 2-cell.
Coordinates reported anywhere in the package are relative to the active
basis.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from .errors import InternalError, MalformedInput, NotABasis, TorsionDetected
from .snf import smith_normal_form, unimodular_inverse
from .surface_map import Crossing, DualGraph, Walk, WallSystemMap, reverse_walk

Coords = tuple[int, ...]


@dataclass(frozen=True)
class BoundaryMatrices:
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
    for d in range(wmap.dart_count):
        d2[wmap.dart_edge[d]][wmap.dart_vertex[d]] += wmap.kappa(d)
    return BoundaryMatrices(tuple(map(tuple, d1)), tuple(map(tuple, d2)))


@dataclass(frozen=True)
class HomologyBasis:
    """2g dual cycles with dual cocycle weights for coordinate extraction."""

    wmap: WallSystemMap
    cycles: tuple[Walk, ...]
    cocycles: tuple[tuple[int, ...], ...]
    label: str = "auto"

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
    def signature(self) -> str:
        import hashlib

        payload = repr((self.wmap.digest, self.cocycles)).encode()
        return hashlib.sha256(payload).hexdigest()[:12]


def _spanning_tree(dual: DualGraph) -> tuple[set[int], dict[int, tuple[int, Crossing]]]:
    """Greedy smallest-index spanning tree; returns tree edges and parent links."""
    parent_of = list(range(dual.node_count))

    def find(x: int) -> int:
        while parent_of[x] != x:
            parent_of[x] = parent_of[parent_of[x]]
            x = parent_of[x]
        return x

    tree: set[int] = set()
    for e, (right, left) in enumerate(dual.ends):
        a, b = find(right), find(left)
        if a != b:
            parent_of[a] = b
            tree.add(e)

    # orient the tree from node 0 outwards for path queries
    adjacency: dict[int, list[tuple[int, int, int]]] = {n: [] for n in range(dual.node_count)}
    for e in sorted(tree):
        right, left = dual.ends[e]
        adjacency[right].append((e, +1, left))
        adjacency[left].append((e, -1, right))
    parents: dict[int, tuple[int, Crossing]] = {0: (0, (0, 0))}
    frontier = [0]
    while frontier:
        nxt = []
        for node in frontier:
            for e, direction, other in sorted(adjacency[node]):
                if other not in parents:
                    parents[other] = (node, (e, direction))
                    nxt.append(other)
        frontier = nxt
    return tree, parents


def _tree_path(parents: dict[int, tuple[int, Crossing]], src: int, dst: int) -> Walk:
    """Walk src -> dst inside the spanning tree (via their paths to the root)."""

    def to_root(node: int) -> list[Crossing]:
        crossings = []
        while node != 0:
            prev, move = parents[node]
            crossings.append((move[0], -move[1]))
            node = prev
        return crossings

    up = to_root(src)          # src -> root
    down = to_root(dst)        # dst -> root
    # cancel the common tail through the root
    while up and down and up[-1] == down[-1]:
        up.pop()
        down.pop()
    return tuple(up) + reverse_walk(tuple(down))


def _chain_to_walk(dual: DualGraph, parents: dict[int, tuple[int, Crossing]],
                   chain: dict[int, int]) -> Walk:
    """Turn a 1-cycle chain into one closed walk with the same crossings.

    Components of the support are joined through spanning-tree paths walked
    there and back, which adds nothing to the chain.  The walk starts at the
    smallest face in the support and is found by a deterministic Hierholzer
    traversal.
    """
    if not chain:
        return ()
    # multiset of directed crossings per start face
    outgoing: dict[int, list[Crossing]] = {}
    nodes = set()
    for e, c in sorted(chain.items()):
        if c == 0:
            continue
        direction = 1 if c > 0 else -1
        src, dst = dual.crossing_ends(e, direction)
        nodes.add(src)
        nodes.add(dst)
        for _ in range(abs(c)):
            outgoing.setdefault(src, []).append((e, direction))

    # connect support components to the base through doubled tree paths
    base = min(nodes)
    seen = {base}
    stack = [base]
    while stack:
        node = stack.pop()
        for e, direction, other in dual.moves[node]:
            if chain.get(e) and other not in seen:
                seen.add(other)
                stack.append(other)
    missing = sorted(n for n in nodes if n not in seen)
    while missing:
        target = missing[0]
        path = _tree_path(parents, base, target)
        for e, direction in path:
            src, _ = dual.crossing_ends(e, direction)
            outgoing.setdefault(src, []).append((e, direction))
        for e, direction in reverse_walk(path):
            src, _ = dual.crossing_ends(e, direction)
            outgoing.setdefault(src, []).append((e, direction))
        # everything reachable through the new path joins the base component
        stack = [target]
        seen.add(target)
        while stack:
            node = stack.pop()
            for e, direction, other in dual.moves[node]:
                if chain.get(e) and other not in seen:
                    seen.add(other)
                    stack.append(other)
        missing = sorted(n for n in nodes if n not in seen)

    for moves in outgoing.values():
        moves.sort(reverse=True)  # pop() takes the smallest crossing first

    # Hierholzer: in/out degrees balance at every face by construction
    circuit: list[Crossing] = []
    stack_faces = [base]
    stack_moves: list[Crossing] = []
    while stack_faces:
        here = stack_faces[-1]
        if outgoing.get(here):
            move = outgoing[here].pop()
            stack_moves.append(move)
            stack_faces.append(dual.crossing_ends(*move)[1])
        else:
            stack_faces.pop()
            if stack_moves:
                circuit.append(stack_moves.pop())
    circuit.reverse()
    if any(outgoing.values()):
        raise InternalError("chain left unused crossings")
    return tuple(circuit)


def homology_basis(wmap: WallSystemMap) -> HomologyBasis:
    """Deterministic integer basis of H_1 with dual cocycle weights.

    Fundamental cycles of a greedy spanning tree of the dual graph are
    quotiented by the image of d2 via Smith normal form; the surviving free
    generators give the cycles and the matching rows of the transform give
    the cocycles.  Raises TorsionDetected if the quotient is not free.
    """
    cached = _basis_cache.get(wmap.digest)
    if cached is not None:
        return cached

    dual = wmap.dual_graph
    tree, parents = _spanning_tree(dual)
    nontree = [e for e in range(wmap.edge_count) if e not in tree]
    m = len(nontree)
    expected_rank = 2 * wmap.genus
    bnd = boundary_matrices(wmap)

    # relations: d2 columns in fundamental-cycle coordinates (non-tree rows)
    relations = [[bnd.d2[e][v] for v in range(wmap.vertex_count)] for e in nontree]
    snf = smith_normal_form(relations, m, wmap.vertex_count)
    torsion = [s for s in snf.diag if s not in (0, 1)]
    if torsion:
        raise TorsionDetected(f"homology has invariant factors {sorted(set(torsion))}")
    free = [i for i in range(m) if snf.diag[i] == 0]
    if len(free) != expected_rank:
        raise TorsionDetected(
            f"free rank {len(free)} does not match 2g = {expected_rank}"
        )

    cycles = []
    cocycles = []
    for i in free:
        chain: dict[int, int] = {}
        for k, e in enumerate(nontree):
            coeff = snf.u_inverse[k][i]
            if coeff:
                chain[e] = coeff
        # expand each non-tree coefficient into its full fundamental cycle
        full_chain: dict[int, int] = dict(chain)
        for e, coeff in list(chain.items()):
            right, left = dual.ends[e]
            for te, tdir in _tree_path(parents, left, right):
                full_chain[te] = full_chain.get(te, 0) + coeff * tdir
        full_chain = {e: c for e, c in full_chain.items() if c}
        cycles.append(_chain_to_walk(dual, parents, full_chain))

        weights = [0] * wmap.edge_count
        for k, e in enumerate(nontree):
            weights[e] = snf.u[i][k]
        cocycles.append(tuple(weights))

    basis = HomologyBasis(wmap, tuple(cycles), tuple(cocycles), label="auto")
    _check_basis(basis, bnd)
    _basis_cache[wmap.digest] = basis
    return basis


_basis_cache: dict[str, HomologyBasis] = {}


def _check_basis(basis: HomologyBasis, bnd: BoundaryMatrices) -> None:
    for i, w in enumerate(basis.cocycles):
        for v in range(basis.wmap.vertex_count):
            pairing = sum(w[e] * bnd.d2[e][v] for e in range(basis.wmap.edge_count))
            if pairing != 0:
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
    if basis.wmap != wmap:
        raise InternalError("the basis belongs to a different map")
    return tuple(len(b) % 2 for b in basis.cycles)


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
    _check_basis(basis, boundary_matrices(wmap))
    return basis


def parse_basis_file(text: str) -> list[Walk]:
    """Parse a basis file: lines ``cycle <i>: <link><+|-> ...``."""
    cycles: dict[int, Walk] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, _, rest = line.partition(" ")
        if head != "cycle" or ":" not in rest:
            raise MalformedInput(f"line {lineno}: expected 'cycle <i>: ...'")
        index_part, _, tokens = rest.partition(":")
        try:
            index = int(index_part)
        except ValueError:
            raise MalformedInput(f"line {lineno}: bad cycle index {index_part!r}") from None
        crossings = []
        for token in tokens.split():
            if token[-1] not in "+-":
                raise MalformedInput(f"line {lineno}: crossing {token!r} must end in + or -")
            try:
                edge = int(token[:-1])
            except ValueError:
                raise MalformedInput(f"line {lineno}: bad link id in {token!r}") from None
            crossings.append((edge, 1 if token[-1] == "+" else -1))
        if index in cycles:
            raise MalformedInput(f"line {lineno}: repeated cycle {index}")
        cycles[index] = tuple(crossings)
    if sorted(cycles) != list(range(len(cycles))):
        raise MalformedInput("cycle indices must be 0..rank-1")
    return [cycles[i] for i in range(len(cycles))]


def format_basis_file(walks: Sequence[Walk]) -> str:
    lines = []
    for i, walk in enumerate(walks):
        tokens = " ".join(f"{e}{'+' if d > 0 else '-'}" for e, d in walk)
        lines.append(f"cycle {i}: {tokens}")
    return "\n".join(lines) + "\n"


def basis_from_file(wmap: WallSystemMap, text: str) -> HomologyBasis:
    return set_user_basis(wmap, parse_basis_file(text))
