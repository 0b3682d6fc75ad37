"""Command-line front end.

Subcommands: info, coorientations, classes, ball, norm, oracle, verify,
realize, birkhoff, svg, fixture.  Text reports are byte-deterministic for
identical inputs; every class-reporting command takes ``--basis FILE`` and
echoes the active basis in its header.  Domain errors exit with status 1
and the error name; usage errors, non-positive ``--box``, ``--radius`` and
``--max-enum`` and a ``WALLNORM_MAX_ENUM`` that is not a positive integer
among them, exit with status 2.

Each subcommand's arguments are defined once, in ``_SUBCOMMANDS`` (name ->
help line and the function that adds its arguments).  ``build_parser``
assembles the full argparse ``wallnorm`` parser from that table.  Building
it is a large share of a one-shot request, so `_read` reads a well-formed
request without importing argparse: the subcommand, all its positionals (a
negative integer counts as one), then its long options spelled out, each
at most once and followed by its value if it takes one.  It gets the
arguments by running the same adders against ``_Spec``, and it gives the
namespace the full parser would.  Every other argv (``-h``, abbreviations,
``--opt=value``, ``--``, options before positionals, repeats, bad values,
unknown words) goes to the full parser, so usage, help and errors are
argparse's, byte for byte.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, replace
from pathlib import Path
from types import SimpleNamespace

from . import fixtures
from .birkhoff import classify
from .coorient import _check_cap, _enum_cap, enumerate_eulerian, eulerian_class_counts
from .eikonal import realize
from .errors import WallNormError
from .homology import HomologyBasis, basis_from_file, gamma_parity, homology_basis
from .normball import dual_ball, norm
from .oracle import min_multicurve, verify_min_equals_max
from .surface_map import WallSystemMap, parse_wall_system
from .svg import check_genus_one, render_svg


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
                raise ValueError(f"--{key.replace('_', '-')} must be positive")
        _enum_cap(self.options.get("max_enum"))  # a malformed WALLNORM_MAX_ENUM is refused here


def _load(config: RunConfig) -> tuple[WallSystemMap, HomologyBasis]:
    with open(config.input_path) as f:
        wmap = parse_wall_system(f.read())
    if config.basis_path:
        with open(config.basis_path) as f:
            basis = basis_from_file(wmap, f.read())
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
    limit = config.options.get("max_enum")
    list_dir = config.options.get("list_dir")
    if list_dir:  # only listing needs the coorientations themselves
        eul = enumerate_eulerian(wmap, basis, limit)
        count, classes = eul.count, eul.classes
    else:  # counted, not listed; the cap still refuses as the listing would
        count, classes = eulerian_class_counts(wmap, basis)
        _check_cap(count, limit)
    print(f"eulerian {count}", file=out)
    if config.options.get("classes"):
        for point in sorted(classes):
            print(f"class {_coords(point)} count={classes[point]}", file=out)
    if list_dir:
        target = Path(list_dir)
        target.mkdir(parents=True, exist_ok=True)
        for k, coor in enumerate(eul.items):
            (target / f"coor_{k:06d}.txt").write_text(coor.to_text())
        print(f"written {count} files to {target}", file=out)
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
    result = norm(wmap, basis, config.options["coords"])
    _header(out, wmap, basis)
    print(f"x = {result.value}", file=out)
    print(f"witness {_coords(result.witness)}", file=out)
    return 0


def cmd_oracle(config: RunConfig, out) -> int:
    wmap, basis = _load(config)
    value, certificate = min_multicurve(
        wmap, basis, config.options["coords"], config.options.get("radius")
    )
    _header(out, wmap, basis)
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
    try:
        result = realize(
            wmap, basis, config.options["coords"], method=config.options.get("method", "auto")
        )
    except WallNormError:  # a refused class is reported under the header; a usage error is not
        _header(out, wmap, basis)
        raise
    _header(out, wmap, basis)
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
    check_genus_one(basis.rank)  # before the ball and the classification are paid for
    ball = dual_ball(wmap, basis)
    report = classify(wmap, basis, ball)
    text = render_svg(ball, [(e.point, e.status) for e in report.entries])
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


def _with_map(p) -> None:
    p.add_argument("input", help="wall-system file")
    p.add_argument("--basis", help="basis file (defaults to the computed basis)")


def _coorientations_args(p) -> None:
    _with_map(p)
    p.add_argument("--classes", action="store_true", help="also print the class multiset")
    p.add_argument("--list", dest="list_dir", help="write one coorientation file per item")
    p.add_argument("--max-enum", type=int, help="enumeration cap")


def _ball_args(p) -> None:
    _with_map(p)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--extreme", action="store_true", help="extreme points (default)")
    group.add_argument("--all-classes", action="store_true", help="all class points")
    group.add_argument("--area", action="store_true", help="exact area (genus one)")


def _norm_args(p) -> None:
    _with_map(p)
    p.add_argument("coords", type=int, nargs="+", help="class coordinates a1 .. a2g")


def _oracle_args(p) -> None:
    _with_map(p)
    p.add_argument("coords", type=int, nargs="+")
    p.add_argument("--radius", type=int, help="cover truncation radius")
    p.add_argument("--certificate", action="store_true")


def _verify_args(p) -> None:
    _with_map(p)
    p.add_argument("--box", type=int, required=True, help="coordinate box radius")


def _realize_args(p) -> None:
    _with_map(p)
    p.add_argument("coords", type=int, nargs="+")
    p.add_argument("--out", help="write the coorientation file here")
    p.add_argument("--method", choices=("auto", "lookup"), default="auto")


def _birkhoff_args(p) -> None:
    _with_map(p)
    p.add_argument("--json-report", dest="json_report", help="also write a JSON report")


def _svg_args(p) -> None:
    _with_map(p)
    p.add_argument("--out", help="output file (stdout otherwise)")


def _fixture_args(p) -> None:
    p.add_argument("m", type=int, help="number of horizontal circles")
    p.add_argument("n", type=int, help="number of vertical circles")
    p.add_argument("--out", help="output file (stdout otherwise)")
    p.add_argument("--basis-out", dest="basis_out", help="also write the grid basis file")


# subcommand -> (help line, adder of its arguments), in the order `wallnorm -h` lists them
_SUBCOMMANDS = {
    "info": ("V, E, F, genus, curves, parity", _with_map),
    "coorientations": ("enumerate Eulerian coorientations", _coorientations_args),
    "classes": ("Eulerian class multiset", _with_map),
    "ball": ("dual unit ball", _ball_args),
    "norm": ("intersection norm of an integer class", _norm_args),
    "oracle": ("brute-force minimum with certificate", _oracle_args),
    "verify": ("oracle vs max formula over a box", _verify_args),
    "realize": ("realize a class as a coorientation", _realize_args),
    "birkhoff": ("classify Birkhoff cross sections", _birkhoff_args),
    "svg": ("render the genus-one dual ball", _svg_args),
    "fixture": ("emit a torus grid wall system G(m,n)", _fixture_args),
}


def build_parser():
    """The full argparse parser: every subcommand of `_SUBCOMMANDS` under ``wallnorm``."""
    import argparse  # only here: a well-formed request is read by `_read`

    parser = argparse.ArgumentParser(
        prog="wallnorm",
        description="Exact intersection norms of wall systems on surfaces.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (help_text, add_arguments) in _SUBCOMMANDS.items():
        add_arguments(sub.add_parser(name, help=help_text))
    return parser


class _Spec:
    """Stands in for a parser while an adder of `_SUBCOMMANDS` runs, and keeps its arguments.

    It knows the argparse features the adders use: one name per argument,
    ``store_true`` or a stored value, ``nargs="+"`` on the last positional.
    It refuses any other, so that `_read` answers nothing it cannot read.
    """

    def __init__(self) -> None:
        self.positionals: list[tuple] = []  # (dest, type, nargs "+")
        self.options: dict[str, tuple] = {}  # option string -> (dest, type, choices, flag)
        self.defaults: dict[str, object] = {}
        self.required: list[str] = []
        self.groups: list[set[str]] = []  # option strings of each mutually exclusive group

    def add_argument(self, name, *, action="store", dest=None, type=str, nargs=None,
                     choices=None, default=None, required=False, help=None) -> str:
        positional = not name.startswith("-")
        after_rest = any(many for _, _, many in self.positionals)
        if (action not in ("store", "store_true")
                or nargs not in (None, "+" if positional else None)
                or positional and (choices is not None or after_rest)):
            raise TypeError(f"the argv reader cannot read argument {name!r}")
        if positional:
            self.positionals.append((name, type, nargs == "+"))
            return name
        dest = dest or name.lstrip("-").replace("-", "_")
        flag = action == "store_true"
        self.options[name] = (dest, type, choices, flag)
        self.defaults[dest] = False if flag and default is None else default
        if required:
            self.required.append(name)
        return name

    def add_mutually_exclusive_group(self) -> SimpleNamespace:
        members: set[str] = set()
        self.groups.append(members)
        return SimpleNamespace(
            add_argument=lambda *a, **kw: members.add(self.add_argument(*a, **kw)))


def _is_value(word: str) -> bool:
    """A word argparse takes as a value here: no leading "-", or a negative integer."""
    return not word.startswith("-") or (word[1:].isdecimal() and word[1:].isascii())


def _read(argv: list[str]) -> SimpleNamespace | None:
    """The namespace of ``build_parser().parse_args(argv)`` for an argv in the reader's form.

    None for any other argv (see the module docstring), and for one that
    the full parser would refuse.
    """
    entry = _SUBCOMMANDS.get(argv[0]) if argv else None
    if entry is None:
        return None
    spec = _Spec()
    entry[1](spec)
    words = argv[1:]
    k = next((i for i, word in enumerate(words) if not _is_value(word)), len(words))
    count = len(spec.positionals)
    if k < count or (k > count and not any(many for _, _, many in spec.positionals)):
        return None
    found = {"subcommand": argv[0], **spec.defaults}
    given: set[str] = set()
    rest = iter(words[k:])
    try:  # a type's ValueError or TypeError is argparse's "invalid value"
        for i, (dest, convert, many) in enumerate(spec.positionals):
            found[dest] = [convert(w) for w in words[i:k]] if many else convert(words[i])
        for word in rest:
            option = spec.options.get(word)
            if option is None or word in given:
                return None
            given.add(word)
            dest, convert, choices, flag = option
            if flag:
                found[dest] = True
                continue
            value = next(rest, "-")  # "-" stands for a missing value: never a value here
            if not _is_value(value):
                return None
            found[dest] = convert(value)
            if choices is not None and found[dest] not in choices:
                return None
    except (TypeError, ValueError):
        return None
    if any(name not in given for name in spec.required) or any(
            len(given & members) > 1 for members in spec.groups):
        return None
    return SimpleNamespace(**found)


def _parse(argv: list[str]):
    """The reader's namespace, or the full parser's answer (or exit) for any other argv."""
    return _read(argv) or build_parser().parse_args(argv)


def main(argv: list[str] | None = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    args = _parse(sys.argv[1:] if argv is None else argv)
    options = {k: v for k, v in vars(args).items() if k not in ("subcommand", "input", "basis")}
    try:
        config = RunConfig(
            args.subcommand,
            getattr(args, "input", None),
            getattr(args, "basis", None),
            options,
        )
        return _COMMANDS[args.subcommand](config, out)
    except (WallNormError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        # bad argument values (non-positive bounds, wrong coordinate count, undersized radius)
        print(f"usage error: {exc}", file=sys.stderr)
        return 2


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
