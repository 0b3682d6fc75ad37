"""Command-line front end.

Subcommands: info, coorientations, classes, ball, norm, oracle, verify,
realize, birkhoff, svg, fixture.  Text reports are byte-deterministic for
identical inputs; every class-reporting command takes ``--basis FILE`` and
echoes the active basis in its header.  Domain errors exit with status 1
and the error name; usage errors, non-positive ``--box``, ``--radius`` and
``--max-enum`` and a ``WALLNORM_MAX_ENUM`` that is not a positive integer
among them, exit with status 2.

Each subcommand is defined once, in ``_SUBCOMMANDS``: its help line, its
command and its arguments as data, ``(name, argparse keywords)`` pairs.
``build_parser`` assembles the full argparse ``wallnorm`` parser from that
table.  Building it is a large share of a one-shot request, so `_read`
reads a well-formed request from the same table without importing
argparse: the subcommand, all its positionals (a negative integer counts
as one), then its long options spelled out, each at most once and followed
by its value if it takes one.  It gives the namespace the full parser
would.  Every other argv (``-h``, abbreviations, ``--opt=value``, ``--``,
options before positionals, repeats, bad values, unknown words) goes to
the full parser, so usage, help and errors are argparse's, byte for byte.
``main`` loads the map and basis once for a subcommand that reads a map,
and the command takes the namespace, the map and the basis.
"""

from __future__ import annotations

import sys
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


def _load(args) -> tuple[WallSystemMap, HomologyBasis]:
    with open(args.input) as f:
        wmap = parse_wall_system(f.read())
    if args.basis:
        with open(args.basis) as f:
            basis = basis_from_file(wmap, f.read())
    else:
        basis = homology_basis(wmap)
    return wmap, basis


def _header(out, wmap: WallSystemMap, basis: HomologyBasis) -> None:
    print(f"# map {wmap.digest}", file=out)
    print(f"# basis {basis.label} {basis.signature}", file=out)


def _coords(point) -> str:
    return " ".join(str(x) for x in point)


def _emit(text: str, path: str | None, out) -> None:
    """Write the text to the file at path and say so, or print it when there is no path."""
    if path:
        Path(path).write_text(text)
        print(f"written {path}", file=out)
    else:
        print(text, end="", file=out)


def cmd_info(args, wmap, basis, out) -> int:
    _header(out, wmap, basis)
    parity = gamma_parity(wmap, basis)
    parity_text = "(" + ",".join(str(p) for p in parity) + ")"
    print(
        f"V={wmap.vertex_count} E={wmap.edge_count} F={len(wmap.faces)} "
        f"genus={wmap.genus} curves={len(wmap.curves)} parity={parity_text}",
        file=out,
    )
    return 0


def cmd_coorientations(args, wmap, basis, out) -> int:
    _header(out, wmap, basis)
    if args.list_dir:  # only listing needs the coorientations themselves
        eul = enumerate_eulerian(wmap, basis, args.max_enum)
        count, classes = eul.count, eul.classes
    else:  # counted, not listed; the cap still refuses as the listing would
        count, classes = eulerian_class_counts(wmap, basis)
        _check_cap(count, args.max_enum)
    print(f"eulerian {count}", file=out)
    if args.classes:
        for point in sorted(classes):
            print(f"class {_coords(point)} count={classes[point]}", file=out)
    if args.list_dir:
        target = Path(args.list_dir)
        target.mkdir(parents=True, exist_ok=True)
        for k, coor in enumerate(eul.items):
            (target / f"coor_{k:06d}.txt").write_text(coor.to_text())
        print(f"written {count} files to {target}", file=out)
    return 0


def cmd_classes(args, wmap, basis, out) -> int:
    args = SimpleNamespace(**vars(args), classes=True, list_dir=None, max_enum=None)
    return cmd_coorientations(args, wmap, basis, out)


def cmd_ball(args, wmap, basis, out) -> int:
    _header(out, wmap, basis)
    if args.area and basis.rank != 2:  # before the ball is paid for
        raise WallNormError("--area is only available for genus-one maps")
    ball = dual_ball(wmap, basis)
    if args.area:
        print(f"area {ball.g1_area}", file=out)
        return 0
    points = ball.points if args.all_classes else ball.extreme
    label = "point" if args.all_classes else "extreme"
    for point in points:
        print(f"{label} {_coords(point)}", file=out)
    print(f"count {len(points)}", file=out)
    if ball.polygon is not None:
        print(f"facets {len(ball.polygon)}", file=out)
    return 0


def cmd_norm(args, wmap, basis, out) -> int:
    result = norm(wmap, basis, args.coords)
    _header(out, wmap, basis)
    print(f"x = {result.value}", file=out)
    print(f"witness {_coords(result.witness)}", file=out)
    return 0


def cmd_oracle(args, wmap, basis, out) -> int:
    value, certificate = min_multicurve(wmap, basis, args.coords, args.radius)
    _header(out, wmap, basis)
    print(f"x_min = {value}", file=out)
    if args.certificate:
        for walk, coords, length in certificate.cycles:
            tokens = " ".join(f"{e}{'+' if d > 0 else '-'}" for e, d in walk)
            print(f"cycle class=({_coords(coords)}) length={length}: {tokens}", file=out)
    return 0


def cmd_verify(args, wmap, basis, out) -> int:
    _header(out, wmap, basis)
    report = verify_min_equals_max(wmap, basis, args.box)
    print(
        f"checked {report.checked} classes in box {report.box_radius} "
        f"(truncation {report.truncation})",
        file=out,
    )
    print(f"discrepancies: {len(report.discrepancies)}", file=out)
    for point, oracle_value, norm_value in report.discrepancies:
        print(f"MISMATCH {_coords(point)} oracle={oracle_value} norm={norm_value}", file=out)
    return 0 if report.ok else 1


def cmd_realize(args, wmap, basis, out) -> int:
    try:
        result = realize(wmap, basis, args.coords, method=args.method)
    except WallNormError:  # a refused class is reported under the header; a usage error is not
        _header(out, wmap, basis)
        raise
    _header(out, wmap, basis)
    print(f"realized {_coords(result.target)} method={result.method}", file=out)
    _emit(result.coorientation.to_text(), args.out, out)
    return 0


def cmd_birkhoff(args, wmap, basis, out) -> int:
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
    if args.json_report:
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
        _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", args.json_report, out)
    return 0


def cmd_svg(args, wmap, basis, out) -> int:
    check_genus_one(basis.rank)  # before the ball and the classification are paid for
    ball = dual_ball(wmap, basis)
    report = classify(wmap, basis)  # reads the ball kept on the basis
    _emit(render_svg(ball, [(e.point, e.status) for e in report.entries]), args.out, out)
    return 0


def cmd_fixture(args, out) -> int:
    m, n = args.m, args.n
    if m < 1 or n < 1:
        raise WallNormError("grid parameters must be at least 1")
    _emit(fixtures.grid_text(m, n), args.out, out)
    if args.basis_out:
        _emit(fixtures.grid_basis_text(m, n), args.basis_out, out)
    return 0


def _map(*more) -> tuple:
    """The arguments of a subcommand that reads a map: ``input``, ``--basis``, then ``more``."""
    return (("input", {"help": "wall-system file"}),
            ("--basis", {"help": "basis file (defaults to the computed basis)"}), *more)


_COORDS = ("coords", {"type": int, "nargs": "+"})
_OUT = ("--out", {"help": "output file (stdout otherwise)"})

# subcommand -> (help line, command, arguments), in the order `wallnorm -h` lists them.
# An argument is a (name, argparse keywords) pair; a tuple of pairs is a
# mutually exclusive group.
_SUBCOMMANDS = {
    "info": ("V, E, F, genus, curves, parity", cmd_info, _map()),
    "coorientations": ("enumerate Eulerian coorientations", cmd_coorientations, _map(
        ("--classes", {"action": "store_true", "help": "also print the class multiset"}),
        ("--list", {"dest": "list_dir", "help": "write one coorientation file per item"}),
        ("--max-enum", {"type": int, "help": "enumeration cap"}))),
    "classes": ("Eulerian class multiset", cmd_classes, _map()),
    "ball": ("dual unit ball", cmd_ball, _map((
        ("--extreme", {"action": "store_true", "help": "extreme points (default)"}),
        ("--all-classes", {"action": "store_true", "help": "all class points"}),
        ("--area", {"action": "store_true", "help": "exact area (genus one)"})))),
    "norm": ("intersection norm of an integer class", cmd_norm, _map(
        ("coords", {"type": int, "nargs": "+", "help": "class coordinates a1 .. a2g"}))),
    "oracle": ("brute-force minimum with certificate", cmd_oracle, _map(
        _COORDS,
        ("--radius", {"type": int, "help": "cover truncation radius"}),
        ("--certificate", {"action": "store_true"}))),
    "verify": ("oracle vs max formula over a box", cmd_verify, _map(
        ("--box", {"type": int, "required": True, "help": "coordinate box radius"}))),
    "realize": ("realize a class as a coorientation", cmd_realize, _map(
        _COORDS,
        ("--out", {"help": "write the coorientation file here"}),
        ("--method", {"choices": ("auto", "lookup"), "default": "auto"}))),
    "birkhoff": ("classify Birkhoff cross sections", cmd_birkhoff, _map(
        ("--json-report", {"help": "also write a JSON report"}))),
    "svg": ("render the genus-one dual ball", cmd_svg, _map(_OUT)),
    "fixture": ("emit a torus grid wall system G(m,n)", cmd_fixture, (
        ("m", {"type": int, "help": "number of horizontal circles"}),
        ("n", {"type": int, "help": "number of vertical circles"}),
        _OUT,
        ("--basis-out", {"help": "also write the grid basis file"}))),
}


def build_parser():
    """The full argparse parser: every subcommand of `_SUBCOMMANDS` under ``wallnorm``."""
    import argparse  # only here: a well-formed request is read by `_read`

    parser = argparse.ArgumentParser(
        prog="wallnorm",
        description="Exact intersection norms of wall systems on surfaces.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (help_text, _, arguments) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for group, pairs in map(_pairs, arguments):
            target = p.add_mutually_exclusive_group() if group else p
            for arg_name, keywords in pairs:
                target.add_argument(arg_name, **keywords)
    return parser


def _pairs(argument) -> tuple[bool, tuple]:
    """Whether a table argument is a mutually exclusive group, and its (name, keywords) pairs."""
    group = not isinstance(argument[0], str)
    return group, argument if group else (argument,)


def _spec(arguments) -> SimpleNamespace:
    """A `_SUBCOMMANDS` entry's arguments in the form `_read` reads them.

    The reader knows the argparse features the table uses: one name per
    argument, ``store_true`` or a stored value, ``nargs="+"`` on the last
    positional.  Any other raises TypeError, so that `_read` answers
    nothing it cannot read.
    """
    spec = SimpleNamespace(
        positionals=[],  # (dest, type, nargs "+")
        options={},  # option string -> (dest, type, choices, flag)
        defaults={}, required=[],
        groups=[],  # option strings of each mutually exclusive group
    )

    def add(name, *, action="store", dest=None, type=str, nargs=None,
            choices=None, default=None, required=False, help=None) -> str:
        positional = not name.startswith("-")
        after_rest = any(many for _, _, many in spec.positionals)
        if (action not in ("store", "store_true")
                or nargs not in (None, "+" if positional else None)
                or positional and (choices is not None or after_rest)):
            raise TypeError(f"the argv reader cannot read argument {name!r}")
        if positional:
            spec.positionals.append((name, type, nargs == "+"))
            return name
        dest = dest or name.lstrip("-").replace("-", "_")
        flag = action == "store_true"
        spec.options[name] = (dest, type, choices, flag)
        spec.defaults[dest] = False if flag and default is None else default
        if required:
            spec.required.append(name)
        return name

    for group, pairs in map(_pairs, arguments):
        names = {add(name, **keywords) for name, keywords in pairs}
        if group:
            spec.groups.append(names)
    return spec


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
    spec = _spec(entry[2])
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
    try:
        for key in ("radius", "box", "max_enum"):
            value = getattr(args, key, None)
            if value is not None and value <= 0:
                raise ValueError(f"--{key.replace('_', '-')} must be positive")
        _enum_cap(getattr(args, "max_enum", None))  # a malformed WALLNORM_MAX_ENUM is refused here
        loaded = _load(args) if hasattr(args, "input") else ()
        return _SUBCOMMANDS[args.subcommand][1](args, *loaded, out)
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
