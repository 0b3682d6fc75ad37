"""Command-line front end.

Subcommands: info, coorientations, classes, ball, norm, oracle, verify,
realize, birkhoff, svg, fixture.  Text reports are byte-deterministic for
identical inputs; every class-reporting command takes ``--basis FILE`` and
echoes the active basis in its header.  Domain errors exit with status 1
and the error name; usage errors exit with status 2.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, replace
from pathlib import Path

from . import fixtures
from .birkhoff import classify
from .coorient import enumerate_eulerian
from .eikonal import realize
from .errors import WallNormError
from .homology import HomologyBasis, basis_from_file, gamma_parity, homology_basis
from .normball import dual_ball, norm
from .oracle import min_multicurve, verify_min_equals_max
from .surface_map import WallSystemMap, parse_wall_system
from .svg import render_svg


@dataclass(frozen=True)
class RunConfig:
    """One validated CLI invocation."""

    subcommand: str
    input_path: str | None
    basis_path: str | None
    options: dict

    def __post_init__(self) -> None:
        for key in ("radius", "box", "max_enum"):
            value = self.options.get(key)
            if value is not None and value <= 0:
                raise WallNormError(f"--{key.replace('_', '-')} must be positive")


def _load(config: RunConfig) -> tuple[WallSystemMap, HomologyBasis]:
    text = Path(config.input_path).read_text()
    wmap = parse_wall_system(text)
    if config.basis_path:
        basis = basis_from_file(wmap, Path(config.basis_path).read_text())
    else:
        basis = homology_basis(wmap)
    return wmap, basis


def _header(out, wmap: WallSystemMap, basis: HomologyBasis) -> None:
    print(f"# map {wmap.digest}", file=out)
    print(f"# basis {basis.label} {basis.signature}", file=out)


def _coords(point) -> str:
    return " ".join(str(x) for x in point)


def cmd_info(config: RunConfig, out) -> int:
    wmap, basis = _load(config)
    _header(out, wmap, basis)
    parity = gamma_parity(wmap, basis)
    parity_text = "(" + ",".join(str(p) for p in parity) + ")"
    print(
        f"V={wmap.vertex_count} E={wmap.edge_count} F={len(wmap.faces)} "
        f"genus={wmap.genus} curves={len(wmap.curves)} parity={parity_text}",
        file=out,
    )
    return 0


def cmd_coorientations(config: RunConfig, out) -> int:
    wmap, basis = _load(config)
    _header(out, wmap, basis)
    eul = enumerate_eulerian(wmap, basis, config.options.get("max_enum"))
    print(f"eulerian {eul.count}", file=out)
    if config.options.get("classes"):
        for point in sorted(eul.classes):
            print(f"class {_coords(point)} count={eul.classes[point]}", file=out)
    list_dir = config.options.get("list_dir")
    if list_dir:
        target = Path(list_dir)
        target.mkdir(parents=True, exist_ok=True)
        for k, coor in enumerate(eul.items):
            (target / f"coor_{k:06d}.txt").write_text(coor.to_text())
        print(f"written {eul.count} files to {target}", file=out)
    return 0


def cmd_classes(config: RunConfig, out) -> int:
    return cmd_coorientations(replace(config, options={**config.options, "classes": True}), out)


def cmd_ball(config: RunConfig, out) -> int:
    wmap, basis = _load(config)
    _header(out, wmap, basis)
    ball = dual_ball(wmap, basis)
    if config.options.get("area"):
        if ball.g1_area is None:
            raise WallNormError("--area is only available for genus-one maps")
        print(f"area {ball.g1_area}", file=out)
        return 0
    points = ball.points if config.options.get("all_classes") else ball.extreme
    label = "point" if config.options.get("all_classes") else "extreme"
    for point in points:
        print(f"{label} {_coords(point)}", file=out)
    print(f"count {len(points)}", file=out)
    if ball.polygon is not None:
        print(f"facets {len(ball.polygon)}", file=out)
    return 0


def cmd_norm(config: RunConfig, out) -> int:
    wmap, basis = _load(config)
    a = config.options["coords"]
    _header(out, wmap, basis)
    result = norm(wmap, basis, a)
    print(f"x = {result.value}", file=out)
    print(f"witness {_coords(result.witness)}", file=out)
    return 0


def cmd_oracle(config: RunConfig, out) -> int:
    wmap, basis = _load(config)
    a = config.options["coords"]
    _header(out, wmap, basis)
    value, certificate = min_multicurve(wmap, basis, a, config.options.get("radius"))
    print(f"x_min = {value}", file=out)
    if config.options.get("certificate"):
        for walk, coords, length in certificate.cycles:
            tokens = " ".join(f"{e}{'+' if d > 0 else '-'}" for e, d in walk)
            print(f"cycle class=({_coords(coords)}) length={length}: {tokens}", file=out)
    return 0


def cmd_verify(config: RunConfig, out) -> int:
    wmap, basis = _load(config)
    _header(out, wmap, basis)
    report = verify_min_equals_max(wmap, basis, config.options["box"])
    print(
        f"checked {report.checked} classes in box {report.box_radius} "
        f"(truncation {report.truncation})",
        file=out,
    )
    print(f"discrepancies: {len(report.discrepancies)}", file=out)
    for point, oracle_value, norm_value in report.discrepancies:
        print(f"MISMATCH {_coords(point)} oracle={oracle_value} norm={norm_value}", file=out)
    return 0 if report.ok else 1


def cmd_realize(config: RunConfig, out) -> int:
    wmap, basis = _load(config)
    n = config.options["coords"]
    _header(out, wmap, basis)
    result = realize(wmap, basis, n, method=config.options.get("method", "auto"))
    print(f"realized {_coords(result.target)} method={result.method}", file=out)
    out_path = config.options.get("out")
    if out_path:
        Path(out_path).write_text(result.coorientation.to_text())
        print(f"written {out_path}", file=out)
    else:
        print(result.coorientation.to_text(), end="", file=out)
    return 0


def cmd_birkhoff(config: RunConfig, out) -> int:
    wmap, basis = _load(config)
    _header(out, wmap, basis)
    report = classify(wmap, basis)
    for entry in report.entries:
        print(
            f"point={','.join(str(x) for x in entry.point)} status={entry.status} "
            f"chi={entry.euler_characteristic} boundary={entry.boundary_circles} "
            f"genus={entry.section_genus}",
            file=out,
        )
    print(f"interior: {report.interior_count}", file=out)
    print(f"boundary: {report.boundary_count}", file=out)
    print(f"outside: {report.outside_count}", file=out)
    print(f"sections: {report.interior_count}", file=out)
    json_path = config.options.get("json_report")
    if json_path:
        import json

        payload = {
            "map": report.map_digest,
            "basis": report.basis_label,
            "parity": list(report.parity),
            "points": [
                {
                    "point": list(e.point),
                    "status": e.status,
                    "chi": e.euler_characteristic,
                    "boundary": e.boundary_circles,
                    "genus": e.section_genus,
                }
                for e in report.entries
            ],
            "interior": report.interior_count,
            "boundary": report.boundary_count,
            "outside": report.outside_count,
            "section_exists": report.section_exists,
        }
        Path(json_path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"written {json_path}", file=out)
    return 0


def cmd_svg(config: RunConfig, out) -> int:
    wmap, basis = _load(config)
    report = classify(wmap, basis)
    statuses = [(e.point, e.status) for e in report.entries]
    text = render_svg(report.ball, statuses)
    out_path = config.options.get("out")
    if out_path:
        Path(out_path).write_text(text)
        print(f"written {out_path}", file=out)
    else:
        print(text, end="", file=out)
    return 0


def cmd_fixture(config: RunConfig, out) -> int:
    m, n = config.options["m"], config.options["n"]
    if m < 1 or n < 1:
        raise WallNormError("grid parameters must be at least 1")
    text = fixtures.grid_text(m, n)
    out_path = config.options.get("out")
    if out_path:
        Path(out_path).write_text(text)
        print(f"written {out_path}", file=out)
    else:
        print(text, end="", file=out)
    basis_out = config.options.get("basis_out")
    if basis_out:
        Path(basis_out).write_text(fixtures.grid_basis_text(m, n))
        print(f"written {basis_out}", file=out)
    return 0


_COMMANDS = {
    "info": cmd_info,
    "coorientations": cmd_coorientations,
    "classes": cmd_classes,
    "ball": cmd_ball,
    "norm": cmd_norm,
    "oracle": cmd_oracle,
    "verify": cmd_verify,
    "realize": cmd_realize,
    "birkhoff": cmd_birkhoff,
    "svg": cmd_svg,
    "fixture": cmd_fixture,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wallnorm",
        description="Exact intersection norms of wall systems on surfaces.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def with_map(p: argparse.ArgumentParser) -> argparse.ArgumentParser:
        p.add_argument("input", help="wall-system file")
        p.add_argument("--basis", help="basis file (defaults to the computed basis)")
        return p

    with_map(sub.add_parser("info", help="V, E, F, genus, curves, parity"))

    p = with_map(sub.add_parser("coorientations", help="enumerate Eulerian coorientations"))
    p.add_argument("--count", action="store_true", help="print the count only (default)")
    p.add_argument("--classes", action="store_true", help="also print the class multiset")
    p.add_argument("--list", dest="list_dir", help="write one coorientation file per item")
    p.add_argument("--max-enum", type=int, help="enumeration cap")

    with_map(sub.add_parser("classes", help="Eulerian class multiset"))

    p = with_map(sub.add_parser("ball", help="dual unit ball"))
    group = p.add_mutually_exclusive_group()
    group.add_argument("--extreme", action="store_true", help="extreme points (default)")
    group.add_argument("--all-classes", action="store_true", help="all class points")
    group.add_argument("--area", action="store_true", help="exact area (genus one)")

    p = with_map(sub.add_parser("norm", help="intersection norm of an integer class"))
    p.add_argument("coords", type=int, nargs="+", help="class coordinates a1 .. a2g")

    p = with_map(sub.add_parser("oracle", help="brute-force minimum with certificate"))
    p.add_argument("coords", type=int, nargs="+")
    p.add_argument("--radius", type=int, help="cover truncation radius")
    p.add_argument("--certificate", action="store_true")

    p = with_map(sub.add_parser("verify", help="oracle vs max formula over a box"))
    p.add_argument("--box", type=int, required=True, help="coordinate box radius")

    p = with_map(sub.add_parser("realize", help="realize a class as a coorientation"))
    p.add_argument("coords", type=int, nargs="+")
    p.add_argument("--out", help="write the coorientation file here")
    p.add_argument("--method", choices=("auto", "eikonal", "lookup"), default="auto")

    p = with_map(sub.add_parser("birkhoff", help="classify Birkhoff cross sections"))
    p.add_argument("--json-report", dest="json_report", help="also write a JSON report")

    p = with_map(sub.add_parser("svg", help="render the genus-one dual ball"))
    p.add_argument("--out", help="output file (stdout otherwise)")

    p = sub.add_parser("fixture", help="emit a torus grid wall system G(m,n)")
    p.add_argument("m", type=int, help="number of horizontal circles")
    p.add_argument("n", type=int, help="number of vertical circles")
    p.add_argument("--out", help="output file (stdout otherwise)")
    p.add_argument("--basis-out", dest="basis_out", help="also write the grid basis file")

    return parser


def main(argv: list[str] | None = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    options = {k: v for k, v in vars(args).items() if k not in ("subcommand", "input", "basis")}
    config = RunConfig(
        args.subcommand,
        getattr(args, "input", None),
        getattr(args, "basis", None),
        options,
    )
    try:
        return _COMMANDS[args.subcommand](config, out)
    except (WallNormError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        # bad argument values (wrong coordinate count, undersized radius)
        print(f"usage error: {exc}", file=sys.stderr)
        return 2


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
