"""Reference implementations the tests compare the package against.

They are the plain forms of computations the package does faster, kept
only to check that the faster form gives identical results;
``plain_potential``, for one, is the highest potential by F full
Bellman-Ford rounds with each move priced on its own, which the
early-stopping, edge-priced ``eikonal.highest_potential`` is held to, and
``stable_tables`` is the cover oracle's truncation loop that builds the
tables at h + 1 every time, which the level bound of
``oracle._stable_tables`` is held to.
``parse_wall_system``, ``parse_basis_file`` and ``coorientation_from_text``
are the three file parsers as each read the shared record grammar on its
own, with ``int``; the one record reader in ``surface_map`` is held to
them.  ``snf_homology_basis`` is the automatic H_1 basis as a dense Smith
normal form (``smith_normal_form``) of the off-tree relation matrix built
it, which the tree-cotree ``homology.homology_basis`` is held to; the
rank check of ``simplex.affine_dimension`` reads the same Smith normal form.
``shortest_path`` is the dual graph's breadth-first search stopping at its
target, which ``DualGraph.shortest_path``, reading the path off a whole
breadth-first tree, is held to.
``warm_norm`` is the norm on a kept genus-one ball as one ascending scan
of all its extreme points, which the scan of ``normball.norm`` over one
vertex per pair {p, -p} is held to.
``search_eulerian`` and ``eulerian_class_counts`` are the Eulerian search
and class count as each worked out its edge order's bound on its own, the
search with a counter of open darts updated on every step; the one
``coorient._schedule`` both read now is held to them.
Two of them compute the package's answers another way:

* ``solve_lp``, a textbook two-phase tableau simplex with Bland's rule
  over Fractions, and ``hull_position``, which places a point against a
  convex hull with it, are what the highest potential's ball position is
  held to.  Problem sizes are tiny (a handful of equality constraints,
  dozens of variables), so termination and exactness matter and
  asymptotics do not.
* ``extend_highest`` computes the highest eikonal extension on a
  truncated box of the cover, by multi-source shortest paths, and
  ``read_coorientation`` reads a coorientation off it: the potential and
  the realization are held to them.
"""

from __future__ import annotations

import heapq
from collections import Counter, deque
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from itertools import product
from math import inf
from operator import mul
from typing import Iterator, Sequence

from wallnorm import oracle
from wallnorm.birkhoff import ClassificationReport, SectionClass, section_invariants
from wallnorm.coorient import MAX_DP_STATES, Coorientation, _over_cap
from wallnorm.eikonal import _arcs, _potential, highest_potential
from wallnorm.errors import (
    BadDegree, BoxExceeded, InternalError, MalformedInput, OpenWalk, ResourceLimit,
    TorsionDetected, UnstableTruncation,
)
from wallnorm.homology import (
    Coords, HomologyBasis, _check_basis, _check_basis_map, _path_to_root, boundary_matrices,
    gamma_parity,
)
from wallnorm.normball import (
    DualBall, _ccw_compare, _polygon_position, _support_point, _support_vertex,
)
from wallnorm.simplex import affine_dimension
from wallnorm.surface_map import (
    Crossing, DualGraph, Walk, WallSystemMap, reverse_walk,
)


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


def stable_tables(wmap, basis, radius, trunc, max_truncation, watched, empty, improving):
    """The truncation loop that always builds the tables at h + 1 as well.

    ``oracle._stable_tables`` accepts a settled table without that second
    search; it must return the same (truncation, single-cycle table, minima,
    choices) and raise the same errors with the same messages.  The tables
    and the DP are the package's own, each held to a reference of its own.
    """
    cap = max_truncation if max_truncation is not None else 8 * trunc
    while True:
        single, _ = oracle._single_cycle_table(wmap, basis, radius, trunc)
        m, choice = oracle._dp_tables(single, radius)
        single1, _ = oracle._single_cycle_table(wmap, basis, radius, trunc + 1)
        m1, _ = oracle._dp_tables(single1, radius)
        unreachable = [c for c in watched if m[c] == inf or m1[c] == inf]
        unstable = [c for c in watched if m[c] != m1[c]]
        if not unreachable and not unstable:
            return trunc, single, m, choice
        if 2 * trunc > cap:
            if unreachable:
                raise BoxExceeded(empty(unreachable, trunc))
            raise UnstableTruncation(improving(unstable, trunc + 1))
        trunc *= 2


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


OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


class _Unbounded(Exception):
    pass


class _Tableau:
    """Equality-form tableau: columns are n originals, m artificials, rhs."""

    def __init__(self, a: Sequence[Sequence[Fraction]], b: Sequence[Fraction], n: int):
        self.n = n
        self.m = len(a)
        self.width = n + self.m
        self.rows: list[list[Fraction]] = []
        self.basis: list[int] = []
        for i in range(self.m):
            row = [Fraction(x) for x in a[i]]
            rhs = Fraction(b[i])
            if rhs < 0:
                row = [-x for x in row]
                rhs = -rhs
            row += [Fraction(int(i == j)) for j in range(self.m)]
            row.append(rhs)
            self.rows.append(row)
            self.basis.append(n + i)

    def pivot(self, row: int, col: int) -> None:
        inv = 1 / self.rows[row][col]
        self.rows[row] = [x * inv for x in self.rows[row]]
        for i in range(self.m):
            if i != row and self.rows[i][col] != 0:
                factor = self.rows[i][col]
                self.rows[i] = [x - factor * y for x, y in zip(self.rows[i], self.rows[row])]
        self.basis[row] = col

    def reduced_costs(self, costs: list[Fraction]) -> list[Fraction]:
        reduced = costs + [Fraction(0)]
        for i, bi in enumerate(self.basis):
            cb = costs[bi]
            if cb:
                reduced = [x - cb * y for x, y in zip(reduced, self.rows[i])]
        return reduced

    def maximize(self, costs: list[Fraction], allowed: int) -> Fraction:
        """Bland's-rule simplex over columns < allowed from the current basis."""
        while True:
            reduced = self.reduced_costs(costs)
            entering = next((j for j in range(allowed) if reduced[j] > 0), None)
            if entering is None:
                return -reduced[self.width]
            leaving = None
            best = None
            for i in range(self.m):
                coeff = self.rows[i][entering]
                if coeff > 0:
                    ratio = self.rows[i][-1] / coeff
                    if best is None or ratio < best or (
                        ratio == best and self.basis[i] < self.basis[leaving]
                    ):
                        best = ratio
                        leaving = i
            if leaving is None:
                raise _Unbounded()
            self.pivot(leaving, entering)

    def drop_redundant_rows(self) -> None:
        """After phase one: pivot artificials out, delete redundant rows."""
        for i in range(self.m):
            if self.basis[i] >= self.n:
                col = next((j for j in range(self.n) if self.rows[i][j] != 0), None)
                if col is not None:
                    self.pivot(i, col)
        keep = [i for i in range(self.m) if self.basis[i] < self.n]
        for i in range(self.m):
            if self.basis[i] >= self.n and self.rows[i][-1] != 0:
                raise InternalError("artificial basic at nonzero after phase one")
        self.rows = [self.rows[i] for i in keep]
        self.basis = [self.basis[i] for i in keep]
        self.m = len(keep)


def solve_lp(
    a: Sequence[Sequence[Fraction]],
    b: Sequence[Fraction],
    c: Sequence[Fraction],
) -> tuple[str, list[Fraction] | None, Fraction | None]:
    """Maximize c.x subject to a.x = b, x >= 0.

    Returns (status, x, value); x and value are None unless optimal.
    """
    n = len(c)
    tableau = _Tableau(a, b, n)
    phase1 = [Fraction(0)] * n + [Fraction(-1)] * tableau.m
    value = tableau.maximize(phase1, tableau.width)
    if value != 0:
        return INFEASIBLE, None, None
    tableau.drop_redundant_rows()

    phase2 = [Fraction(x) for x in c] + [Fraction(0)] * (tableau.width - n)
    try:
        value = tableau.maximize(phase2, n)
    except _Unbounded:
        return UNBOUNDED, None, None
    x = [Fraction(0)] * n
    for i, bi in enumerate(tableau.basis):
        if bi < n:
            x[bi] = tableau.rows[i][-1]
    return OPTIMAL, x, value


def hull_position(points: Sequence[Sequence[int]], target: Sequence[int]) -> str:
    """Classify target against conv(points): 'outside', 'boundary', 'interior'.

    Interior means a convex combination with every coefficient strictly
    positive exists, decided by maximizing the minimum coefficient; that
    characterizes the relative interior, which equals the interior when the
    points affinely span the ambient space.
    """
    if not points:
        return "outside"
    dim = len(target)
    n = len(points)
    # write lambda_i = mu_i + t with mu, t >= 0 and maximize t
    a = [[Fraction(1)] * n + [Fraction(n)]]
    b = [Fraction(1)]
    for k in range(dim):
        a.append([Fraction(p[k]) for p in points] + [Fraction(sum(p[k] for p in points))])
        b.append(Fraction(target[k]))
    c = [Fraction(0)] * n + [Fraction(1)]
    status, _, value = solve_lp(a, b, c)
    if status != OPTIMAL:
        return "outside"
    return "interior" if value > 0 else "boundary"


def plain_potential(wmap: WallSystemMap, basis: HomologyBasis, n: Sequence[int]):
    """The highest potential by F full Bellman-Ford rounds, each move priced on its own.

    Returns (position, values, steps, tight) as ``eikonal.highest_potential``
    has them; outside the ball (a relaxation in round F) values and steps
    are None and tight is empty.  Boundary means the tight arcs close a cycle: some tight arc's
    head reaches its tail along tight arcs.
    """
    faces = wmap.dual_graph.node_count
    arcs = [(u, v, 1 - sum(a * d for a, d in zip(n, delta))) for u, v, delta, _ in basis.moves]
    g = [None] * faces
    g[0] = 0
    for _ in range(faces):
        changed = False
        for u, v, cost in arcs:
            if g[u] is not None and (g[v] is None or g[u] + cost < g[v]):
                g[v] = g[u] + cost
                changed = True
        if not changed:
            break
    else:
        return "outside", None, None, ()
    reduced = [g[u] + cost - g[v] for u, v, cost in arcs]
    steps = tuple(1 - r for r, (_, _, _, (_, d)) in zip(reduced, basis.moves) if d > 0)
    tight = tuple(move[:3] for move, r in zip(basis.moves, reduced) if r == 0)
    reach = {f: {f} for f in range(faces)}
    for _ in range(faces):
        for u, v, _ in tight:
            reach[u] |= reach[v]
    position = "boundary" if any(u in reach[v] for u, v, _ in tight) else "interior"
    return position, tuple(g), steps, tight


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
    moves = basis.moves
    while heap:
        value, state = heapq.heappop(heap)
        if state in values:
            continue
        values[state] = value
        face, h = state
        for f_from, f_to, delta, _ in moves:
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


def parse_wall_system(text: str) -> WallSystemMap:
    """The wall-file parser that read the record grammar itself."""
    vertex_count = None
    rotations: dict[int, tuple[int, ...]] = {}
    edges: dict[int, tuple[int, ...]] = {}

    def ints(tokens: list[str], where: str) -> list[int]:
        try:
            return [int(t) for t in tokens]
        except ValueError:
            raise MalformedInput(f"non-integer token in {where}: {' '.join(tokens)!r}") from None

    def one(tokens: list[str], lineno: int, what: str) -> int:
        values = ints(tokens, f"line {lineno}")
        if len(values) != 1:
            raise MalformedInput(f"line {lineno}: expected one {what}, got {' '.join(tokens)!r}")
        return values[0]

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, _, rest = line.partition(" ")
        if head == "vertices":
            if vertex_count is not None:
                raise MalformedInput(f"line {lineno}: repeated 'vertices' line")
            vertex_count = one(rest.split(), lineno, "vertex count")
        elif head in ("vertex", "edge"):
            if ":" not in rest:
                raise MalformedInput(f"line {lineno}: missing ':' in {head} line")
            index_part, _, darts_part = rest.partition(":")
            index = one(index_part.split(), lineno, f"{head} index")
            darts = ints(darts_part.split(), f"line {lineno}")
            store = rotations if head == "vertex" else edges
            if index in store:
                raise MalformedInput(f"line {lineno}: repeated {head} {index}")
            if head == "vertex" and len(darts) != 4:
                raise BadDegree(f"line {lineno}: vertex {index} lists {len(darts)} darts")
            if head == "edge" and len(darts) != 2:
                raise MalformedInput(f"line {lineno}: edge {index} must list two darts")
            store[index] = tuple(darts)
        else:
            raise MalformedInput(f"line {lineno}: unknown directive {head!r}")

    if vertex_count is None:
        raise MalformedInput("missing 'vertices <V>' line")
    # the counts first: a header alone must not make V indices
    vertex_ids, edge_ids = range(vertex_count), range(2 * vertex_count)
    if len(rotations) != len(vertex_ids) or sorted(rotations) != list(vertex_ids):
        raise MalformedInput(f"vertex indices must be exactly 0..{vertex_count - 1}")
    if len(edges) != len(edge_ids) or sorted(edges) != list(edge_ids):
        raise MalformedInput(f"edge indices must be exactly 0..{2 * vertex_count - 1}")

    return WallSystemMap(
        vertex_count,
        [rotations[i] for i in range(vertex_count)],
        [edges[j] for j in range(2 * vertex_count)],
    )


def parse_basis_file(text: str) -> list[Walk]:
    """The basis-file parser that read the record grammar itself."""
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


def coorientation_from_text(text: str, edge_count: int) -> Coorientation:
    """The coorientation-file parser that read the record grammar itself."""
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
    return Coorientation(tuple(signs[j] for j in range(edge_count)))


def identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


@dataclass(frozen=True)
class SNFResult:
    """Diagonalization S = U A V with U unimodular (V is not tracked).

    ``diag`` holds the diagonal of S padded with zeros to ``rows`` entries,
    so index i of ``diag`` matches row i of U and column i of ``u_inverse``.
    """

    u: tuple[tuple[int, ...], ...]
    u_inverse: tuple[tuple[int, ...], ...]
    diag: tuple[int, ...]

    @property
    def rank(self) -> int:
        return sum(1 for s in self.diag if s != 0)


def smith_normal_form(matrix: Sequence[Sequence[int]], rows: int, cols: int) -> SNFResult:
    """Diagonalize an integer matrix by unimodular row and column operations.

    Only the left transform U (and its inverse) is returned; column
    operations do not change the column span, which is all the homology
    computation needs.  Divisibility of the diagonal is not normalized:
    the callers only ever ask whether entries lie in {0, 1}.
    """
    a = [[int(matrix[i][j]) for j in range(cols)] for i in range(rows)]
    u = identity(rows)
    u_inv = identity(rows)

    def row_swap(i: int, k: int) -> None:
        a[i], a[k] = a[k], a[i]
        u[i], u[k] = u[k], u[i]
        for r in u_inv:
            r[i], r[k] = r[k], r[i]

    def row_negate(i: int) -> None:
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]
        for r in u_inv:
            r[i] = -r[i]

    def row_add(i: int, k: int, c: int) -> None:
        # row_i += c * row_k; inverse transform: column_k -= c * column_i
        a[i] = [x + c * y for x, y in zip(a[i], a[k])]
        u[i] = [x + c * y for x, y in zip(u[i], u[k])]
        for r in u_inv:
            r[k] -= c * r[i]

    def col_swap(j: int, k: int) -> None:
        for r in a:
            r[j], r[k] = r[k], r[j]

    def col_add(j: int, k: int, c: int) -> None:
        # column_j += c * column_k; only A needs it
        for r in a:
            r[j] += c * r[k]

    t = 0
    limit = min(rows, cols)
    while t < limit:
        pivot = None
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                v = abs(a[i][j])
                if v and (best is None or v < best):
                    best, pivot = v, (i, j)
        if pivot is None:
            break
        if pivot != (t, t):
            if pivot[0] != t:
                row_swap(t, pivot[0])
            if pivot[1] != t:
                col_swap(t, pivot[1])
        if a[t][t] < 0:
            row_negate(t)

        while True:
            moved = False
            for i in range(rows):
                if i != t and a[i][t]:
                    q = a[i][t] // a[t][t]
                    row_add(i, t, -q)
                    if a[i][t]:
                        # remainder became the smaller pivot
                        row_swap(t, i)
                        if a[t][t] < 0:
                            row_negate(t)
                        moved = True
            for j in range(cols):
                if j != t and a[t][j]:
                    q = a[t][j] // a[t][t]
                    col_add(j, t, -q)
                    if a[t][j]:
                        col_swap(t, j)
                        moved = True
            if not moved:
                break
        t += 1

    diag = tuple(a[i][i] if i < cols else 0 for i in range(rows))
    return SNFResult(
        tuple(tuple(r) for r in u),
        tuple(tuple(r) for r in u_inv),
        diag,
    )


def dual_spanning_tree(dual: DualGraph) -> tuple[set[int], dict[int, tuple[int, Crossing]]]:
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
    parents: dict[int, tuple[int, Crossing]] = {0: (0, (0, 0))}
    frontier = [0]
    while frontier:
        nxt = []
        for node in frontier:
            for e, direction, other in dual.moves[node]:
                if e in tree and other not in parents:
                    parents[other] = (node, (e, direction))
                    nxt.append(other)
        frontier = nxt
    return tree, parents


def shortest_path(dual: DualGraph, src: int, dst: int) -> Walk:
    """A shortest walk src -> dst (deterministic BFS, smallest links first)."""
    if src == dst:
        return ()
    parent: dict[int, tuple[int, Crossing]] = {src: (src, (0, 0))}
    frontier = [src]
    while frontier:
        nxt = []
        for node in frontier:
            for edge, direction, other in dual.moves[node]:
                if other not in parent:
                    parent[other] = (node, (edge, direction))
                    if other == dst:
                        crossings = []
                        here = dst
                        while here != src:
                            prev, move = parent[here]
                            crossings.append(move)
                            here = prev
                        return tuple(reversed(crossings))
                    nxt.append(other)
        frontier = nxt
    raise OpenWalk(f"no dual path from face {src} to face {dst}")


def snf_homology_basis(wmap: WallSystemMap) -> HomologyBasis:
    """Deterministic integer basis of H_1 with dual cocycle weights.

    Fundamental cycles of a greedy spanning tree of the dual graph are
    quotiented by the image of d2 via Smith normal form; the surviving free
    generators give the cycles and the matching rows of the transform give
    the cocycles.  Each cycle is a closed walk from face 0: per non-tree
    edge e with coefficient c in the generator, the fundamental loop at
    face 0 (the tree path to e's right face, e crossed right to left, the
    tree path back from its left face), |c| times, reversed when c < 0.
    Raises TorsionDetected if the quotient is not free.
    """
    dual = wmap.dual_graph
    tree, parents = dual_spanning_tree(dual)
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
        walk: list[Crossing] = []
        for k, e in enumerate(nontree):
            coeff = snf.u_inverse[k][i]
            if coeff:
                right, left = dual.ends[e]
                loop = (reverse_walk(_path_to_root(parents, right)) + ((e, 1),)
                        + _path_to_root(parents, left))
                walk.extend((loop if coeff > 0 else reverse_walk(loop)) * abs(coeff))
        cycles.append(tuple(walk))

        weights = [0] * wmap.edge_count
        for k, e in enumerate(nontree):
            weights[e] = snf.u[i][k]
        cocycles.append(tuple(weights))

    basis = HomologyBasis(wmap, tuple(cycles), tuple(cocycles), label="auto")
    _check_basis(basis)
    return basis


def bounding_box(wmap: WallSystemMap, basis: HomologyBasis) -> tuple[tuple[int, int], ...]:
    """The ball's extent per coordinate, from the support queries in the directions +-e_k."""
    rank = basis.rank
    return tuple(
        tuple(_support_point(wmap, basis, [s * (i == k) for i in range(rank)])[k] for s in (-1, 1))
        for k in range(rank)
    )


def genus_one_ball(
    wmap: WallSystemMap, basis: HomologyBasis
) -> tuple[tuple[Coords, ...], tuple[Coords, ...]]:
    """Class points and extreme points of a rank-2 ball, walked with the support oracle.

    The vertices in the directions +-e1, +-e2 start a counterclockwise
    polygon; the outward normal of each side either finds a vertex beyond
    it, which is inserted, or confirms the side.  The class points are the
    lattice points congruent to the parity class inside the polygon.
    """
    vertices = sorted(
        {_support_vertex(wmap, basis, d) for d in ((1, 0), (0, 1), (-1, 0), (0, -1))},
        key=cmp_to_key(_ccw_compare),
    )
    k = 0
    while k < len(vertices):
        p, q = vertices[k], vertices[(k + 1) % len(vertices)]
        normal = (q[1] - p[1], p[0] - q[0])
        r = _support_vertex(wmap, basis, normal)
        if sum(map(mul, normal, r)) > sum(map(mul, normal, p)):
            vertices.insert(k + 1, r)
        else:
            k += 1
    parity = gamma_parity(wmap, basis)
    (x0, x1), (y0, y1) = (
        (min(v[i] for v in vertices), max(v[i] for v in vertices)) for i in (0, 1)
    )
    points = tuple(
        (x, y)
        for x in range(x0 + (x0 - parity[0]) % 2, x1 + 1, 2)
        for y in range(y0 + (y0 - parity[1]) % 2, y1 + 1, 2)
        if _polygon_position(vertices, x, y) != "outside"
    )
    return points, tuple(sorted(vertices))


def build_ball(wmap: WallSystemMap, basis: HomologyBasis) -> DualBall:
    """The dual ball, with the highest-potential vertex test on every non-exposed class point."""
    if basis.rank == 2:
        points, extreme = genus_one_ball(wmap, basis)
    else:
        import numpy as np

        classes = eulerian_class_counts(wmap, basis)[1]
        points = tuple(sorted(classes))
        array = np.array(points, dtype=np.int64)
        gram = array @ array.T
        exposed = (gram >= gram.diagonal()[:, None]).sum(axis=1) == 1
        extreme = tuple(
            p for p, alone in zip(points, exposed.tolist())
            if alone or highest_potential(wmap, basis, p).normal_rank == basis.rank
        )
    dim = affine_dimension(points)
    polygon = None
    area = None
    if basis.rank == 2 and dim == 2:
        polygon = tuple(sorted(extreme, key=cmp_to_key(_ccw_compare)))
        twice = sum(
            polygon[i][0] * polygon[(i + 1) % len(polygon)][1]
            - polygon[(i + 1) % len(polygon)][0] * polygon[i][1]
            for i in range(len(polygon))
        )
        area = abs(Fraction(twice, 2))
    return DualBall(points, extreme, dim, polygon, area, wmap, basis)


def warm_norm(ball: DualBall, a: Sequence[int]) -> tuple[int, Coords]:
    """The norm of a genus-one class from a kept ball, and the smallest maximizing class."""
    a0, a1 = a
    best = witness = None
    for p in ball.extreme:  # ascending, so the first strict maximum is the smallest maximizer
        value = p[0] * a0 + p[1] * a1
        if best is None or value > best:
            best, witness = value, p
    return best, witness


def classify(
    wmap: WallSystemMap, basis: HomologyBasis, ball: DualBall | None = None
) -> ClassificationReport:
    """``birkhoff.classify`` with one potential per congruent point of the box."""
    if ball is not None and ball.basis not in (None, basis):
        raise InternalError("the ball belongs to a different basis")
    if ball is None and basis.rank == 2:
        ball = build_ball(wmap, basis)
    box = bounding_box(wmap, basis) if ball is None else ball.bounding_box()
    parity = gamma_parity(wmap, basis)
    chi, circles, genus = section_invariants(wmap)
    entries = []
    counts = {"interior": 0, "boundary": 0, "outside": 0}
    congruent = [range(lo + (lo - p) % 2, hi + 1, 2) for (lo, hi), p in zip(box, parity)]
    polygon = None if ball is None else ball.polygon
    if polygon is not None:
        located = [(point, _polygon_position(polygon, *point)) for point in product(*congruent)]
    else:
        rows = [((), [0] * wmap.edge_count)]
        for values, cocycle in zip(congruent, basis.cocycles):
            rows = [(point + (x,), [t + x * w for t, w in zip(row, cocycle)])
                    for point, row in rows for x in values]
        located = [(point, _potential(wmap, basis, _arcs(basis, row)).position)
                   for point, row in rows]
    for point, status in located:
        counts[status] += 1
        entries.append(SectionClass(point, status, chi, circles, genus))
    return ClassificationReport(
        wmap.digest,
        basis.label,
        parity,
        tuple(entries),
        counts["interior"],
        counts["boundary"],
        counts["outside"],
    )


def bfs_edge_order(wmap: WallSystemMap) -> list[int]:
    """Edges grouped by vertex, the vertices in BFS order of the wall graph from vertex 0."""
    order: dict[int, None] = {}
    seen = {0}
    queue = deque([0])
    while queue:
        for d in wmap.rotations[queue.popleft()]:
            order.setdefault(wmap.dart_edge[d])
            w = wmap.dart_vertex[wmap.alpha[d]]
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return list(order)


def search_eulerian(wmap: WallSystemMap, cap: int) -> list[tuple[int, ...]]:
    """``coorient._search_eulerian`` counting each vertex's open darts as it goes."""
    steps = [
        (e, wmap.dart_vertex[wmap.edges[e][0]], wmap.dart_vertex[wmap.edges[e][1]])
        for e in bfs_edge_order(wmap)
    ]
    depth = len(steps)
    sums = [0] * wmap.vertex_count
    remaining = [4] * wmap.vertex_count
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
        e, tail, head = steps[pos]
        s = signs[e]
        if s:
            sums[tail] -= s
            sums[head] += s
            remaining[tail] += 1
            remaining[head] += 1
        if s < 0:
            signs[e] = 0
            pos -= 1
            continue
        s = -1 if s else 1
        signs[e] = s
        sums[tail] += s
        sums[head] -= s
        remaining[tail] -= 1
        remaining[head] -= 1
        if abs(sums[tail]) <= remaining[tail] and abs(sums[head]) <= remaining[head]:
            pos += 1
    return found


def eulerian_class_counts(
    wmap: WallSystemMap, basis: HomologyBasis
) -> tuple[int, "Counter[Coords]"]:
    """``coorient.eulerian_class_counts`` assigning its frontier slots from its own dart count."""
    _check_basis_map(wmap, basis)
    counts = basis.cycle_edge_counts
    remaining = [4] * wmap.vertex_count
    slot_of: dict[int, int] = {}
    free: list[int] = []
    width = 0
    placed = []
    for e in bfs_edge_order(wmap):
        ends = []
        for v in (wmap.dart_vertex[d] for d in wmap.edges[e]):
            if v not in slot_of:
                if not free:
                    free.append(width)
                    width += 1
                slot_of[v] = free.pop()
            remaining[v] -= 1
            ends.append(v)
        placed.append((e, [(slot_of[v], remaining[v]) for v in ends]))
        for v in dict.fromkeys(ends):
            if not remaining[v]:
                free.append(slot_of.pop(v))
    frontier_bits = 4 * width
    frontier_zero = sum(4 << 4 * k for k in range(width))
    fields = []
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
