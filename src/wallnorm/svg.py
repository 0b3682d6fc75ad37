"""Deterministic SVG rendering of the dual ball for genus-one maps.

The picture shows the ball polygon, the origin as an empty circle, and the
congruent lattice points as dots colored by their classification status.
Output is byte-deterministic: fixed scale (32 pixels per lattice unit),
integer pixel coordinates, no timestamps.
"""

from __future__ import annotations

from typing import Sequence

from .errors import DegenerateBall, WrongGenus
from .homology import Coords
from .normball import DualBall

SCALE = 32
MARGIN = 1  # lattice units around the bounding box

STATUS_COLORS = {
    "interior": "#2b6cb0",
    "boundary": "#c53030",
    "outside": "#a0aec0",
}


def check_genus_one(rank: int) -> None:
    """Raise WrongGenus unless classes have the 2 coordinates of a genus-one map."""
    if rank != 2:
        raise WrongGenus(f"SVG rendering needs 2 coordinates, got {rank}")


def render_svg(ball: DualBall, statuses: Sequence[tuple[Coords, str]]) -> str:
    """SVG text for a genus-one dual ball with classified lattice points."""
    if not ball.points:
        raise DegenerateBall("cannot render an empty class set")
    check_genus_one(ball.ambient_dim)
    if ball.polygon is None:
        raise DegenerateBall("dual ball has no boundary polygon to draw")

    xs = [p[0] for p in ball.extreme] + [p[0] for p, _ in statuses] + [0]
    ys = [p[1] for p in ball.extreme] + [p[1] for p, _ in statuses] + [0]
    min_x, max_x = min(xs) - MARGIN, max(xs) + MARGIN
    min_y, max_y = min(ys) - MARGIN, max(ys) + MARGIN

    def pix(p: Sequence[int]) -> tuple[int, int]:
        return (p[0] - min_x) * SCALE, (max_y - p[1]) * SCALE

    width, height = (max_x - min_x) * SCALE, (max_y - min_y) * SCALE
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="#ffffff"/>',
    ]
    corners = " ".join(f"{x},{y}" for x, y in map(pix, ball.polygon))
    lines.append(
        f'<polygon points="{corners}" fill="#edf2f7" stroke="#1a202c" stroke-width="2"/>'
    )
    for point, status in statuses:
        x, y = pix(point)
        lines.append(f'<circle cx="{x}" cy="{y}" r="6" fill="{STATUS_COLORS[status]}"/>')
    ox, oy = pix((0, 0))
    lines.append(
        f'<circle cx="{ox}" cy="{oy}" r="6" fill="#ffffff" stroke="#1a202c" stroke-width="2"/>'
    )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
