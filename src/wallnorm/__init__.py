"""Exact intersection norms of wall systems on closed oriented surfaces.

The package computes, with integer and rational arithmetic only:

* combinatorial maps of wall systems (rotation systems with 4-valent
  vertices) and their faces, curves, and dual graphs,
* integer homology bases of the dual cell structure,
* Eulerian coorientations: tests, exhaustive enumeration, a
  transfer-matrix count of their classes, the named
  checkerboard and per-curve constructions, and one maximizing a linear
  pairing of its class (negative-cycle cancelling),
* the intersection norm via maximization over Eulerian classes, and its
  dual unit ball with exact extreme points,
* the highest eikonal extension of a target class as an exact
  shortest-path potential on the dual graph, which decides the class's
  position against the dual ball (with a certificate walk when outside)
  and whether it is a vertex, and realizes it as an Eulerian
  coorientation,
* an independent brute-force oracle for the norm (shortest cycles in the
  truncated maximal abelian cover plus a decomposition dynamic program),
* classification of negative Birkhoff cross sections as interior lattice
  points of the dual ball, with the topological invariants of each section.

Of these results only the dual ball is kept, on its basis, for the
basis's lifetime.
"""

from . import fixtures
from .errors import (
    BadDegree,
    BadEuler,
    BoxExceeded,
    DartMultiplicity,
    DegenerateBall,
    InternalError,
    MalformedInput,
    NotABasis,
    NotBipartite,
    NotEulerian,
    NotRealizable,
    OpenWalk,
    ResourceLimit,
    TorsionDetected,
    UnstableTruncation,
    WallNormError,
    WrongGenus,
)
from .surface_map import (
    Curve,
    DualGraph,
    Face,
    Walk,
    WallSystemMap,
    concat_closed_walks,
    parse_wall_system,
    reverse_walk,
)
from .homology import (
    BoundaryMatrices,
    HomologyBasis,
    basis_from_file,
    boundary_matrices,
    class_of_walk,
    format_basis_file,
    gamma_parity,
    homology_basis,
    parse_basis_file,
    set_user_basis,
)
from .coorient import (
    Coorientation,
    EulerianSet,
    brunella_coorientations,
    checkerboard_coorientation,
    class_of,
    enumerate_eulerian,
    eulerian_class_counts,
    evaluate,
    is_eulerian,
    iter_eulerian,
    support_coorientation,
    vertex_kind,
)
from .normball import (
    DualBall,
    NormValue,
    contains,
    dual_ball,
    norm,
    norm_rational,
)
from .oracle import (
    MultiCurveCertificate,
    VerifyReport,
    min_multicurve,
    min_single_cycle,
    verify_min_equals_max,
)
from .eikonal import (
    HighestPotential,
    RealizationResult,
    highest_potential,
    realize,
)
from .birkhoff import (
    ClassificationReport,
    SectionClass,
    classify,
    section_invariants,
)
from .svg import render_svg

__version__ = "0.1.0"
