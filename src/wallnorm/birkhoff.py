"""Classification of negative Birkhoff cross sections bounded by the lifted walls.

Lattice points of the dual ball congruent to the crossing parity class
correspond one-to-one to isotopy classes of surfaces transverse to the
geodesic flow with the amphithetic lift of the wall system as boundary;
interior points are the ones meeting every orbit, i.e. genuine cross
sections.  No 3-dimensional surface is built: each class is certified by
its lattice point and its topological invariants, which depend only on
the wall system (Euler characteristic -2V, twice the number of curves
many boundary circles).

The classification enumerates nothing at any genus, and decides no
position itself: the points and their positions come from the ball layer's
scan of the box, ``normball._located``.  At genus one the box is the kept
polygon's and each position is read off its sides; above genus one the
box comes from rank support queries (``normball.bounding_box``) and each
pair {p, -p} of congruent points gets its position from one highest
potential.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InternalError
from .homology import Coords, HomologyBasis, gamma_parity
from .normball import DualBall, _located, bounding_box, dual_ball
from .surface_map import WallSystemMap


@dataclass(frozen=True)
class SectionClass:
    """One congruent lattice point with its status and section invariants."""

    point: Coords
    status: str  # "interior" -> cross section, "boundary" -> transverse only, "outside"
    euler_characteristic: int
    boundary_circles: int
    section_genus: int


@dataclass(frozen=True)
class ClassificationReport:
    """All congruent lattice points of the bounding box, classified."""

    map_digest: str
    basis_label: str
    parity: Coords
    entries: tuple[SectionClass, ...]
    interior_count: int
    boundary_count: int
    outside_count: int

    @property
    def section_exists(self) -> bool:
        return self.interior_count > 0


def section_invariants(wmap: WallSystemMap) -> tuple[int, int, int]:
    """(Euler characteristic, boundary circles, genus) of any associated section.

    One rectangle per edge each contributing -1 gives chi = -E = -2V; the
    boundary is the amphithetic lift, two circles per curve; the genus
    follows from the classification of surfaces with boundary.
    """
    v = wmap.vertex_count
    c = len(wmap.curves)
    chi = -2 * v
    circles = 2 * c
    genus = (2 - chi - circles) // 2
    return chi, circles, genus


def classify(
    wmap: WallSystemMap,
    basis: HomologyBasis,
    ball: DualBall | None = None,
) -> ClassificationReport:
    """Classify every congruent lattice point of the dual ball's bounding box.

    A given ``ball`` supplies the box; without one it comes from the
    support queries, except at genus one, where the kept ball is used,
    built if needed.  A ball built on another basis is refused with
    InternalError: its box is in other coordinates.  The points and their
    positions are ``normball._located``'s: at genus one read off the
    ball's polygon, above genus one (or for a given ball without a
    polygon) from the highest potential, one per pair {p, -p}, even when
    a given ball's box holds only one of them.  Neither checks the ball's
    dimension: no check is needed.  The curves fill the surface, so a closed
    dual walk of a nonzero class crosses a wall and the norm is
    definite.  The ball is symmetric (reversing a coorientation negates its
    class), so its affine hull is a linear subspace spanned by lattice
    points; were it proper, some nonzero integer class v would be
    orthogonal to it, and the norm of v, the maximum of v.p over the ball,
    would be 0.  So the ball is full-dimensional and every position is
    well defined.
    """
    if ball is not None and ball.basis not in (None, basis):
        raise InternalError("the ball belongs to a different basis")
    if ball is None and basis.rank == 2:
        ball = dual_ball(wmap, basis)
    box = bounding_box(wmap, basis) if ball is None else ball.bounding_box()
    parity = gamma_parity(wmap, basis)
    chi, circles, genus = section_invariants(wmap)
    entries = []
    counts = {"interior": 0, "boundary": 0, "outside": 0}
    for point, status in _located(wmap, basis, box, None if ball is None else ball.polygon):
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
