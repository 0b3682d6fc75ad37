"""Benchmark inputs: the maps, the seeded request lists, and the expected answers.

Every map the benchmark can use is stored in ``golden.json`` together with
the answers the program gave when the benchmark was defined, so inputs do
not depend on the program's own fixture code and every answer has a fixed
reference.  ``make_golden.py`` writes that file.

All maps are fixed.  The higher-genus maps are the first random maps
(``fixtures.random_wall_system`` under a fixed RNG stream) that fall inside
the bands below.  The workload seed draws the query classes: the class of
every one-shot ``norm`` and ``oracle`` request and of the warm norm sweep.
Realize targets are fixed too, one per map, because the cost of a
realization depends strongly on the target (boundary targets take two more
radius doublings).
"""

from __future__ import annotations

import hashlib
import io
import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDEN_PATH = HERE / "golden.json"

# Genus-one maps: G(3,3), G(3,4), G(2,7) with their grid basis files and the
# four-geodesic example with the computed basis.
TORUS_MAPS = ("G33", "G34", "G27", "geo4")
GENUS2_EXAMPLE = "genus2"

# Map name -> acceptance band.  "eulerian" is the number of Eulerian
# coorientations (enumeration work), "classes" the number of their distinct
# classes (LP columns), "points" the number of congruent lattice points
# birkhoff classifies (LP count).
BANDS = {
    "g3v6": {"vertices": 6, "genus": 3, "faces": 2, "eulerian": (50, 64),
             "classes": (40, 40), "points": (96, 96)},
    "g3v8": {"vertices": 8, "genus": 3, "faces": 4, "eulerian": (192, 256),
             "classes": (40, 40), "points": (96, 96)},
    "g2v4": {"vertices": 4, "genus": 2, "faces": 2, "eulerian": (16, 32),
             "classes": (10, 16), "points": (16, 36)},
}

# Query boxes: norm classes on the torus maps in the one-shot workload, the
# warm norm sweep, and the candidate classes of the higher-genus maps.
TORUS_NORM_BOX = 5
SWEEP_NORM_BOX = 50
SWEEP_NORM_QUERIES = 10_000  # per map and pass
HIGH_GENUS_CANDIDATES = 8


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def request_key(kind: str, name: str, args: list[str]) -> str:
    return " ".join([kind, name, *args])


def write_maps(golden: dict, names, workdir: Path) -> dict[str, tuple[str, str | None]]:
    """Write wall and basis files; map name -> (wall path, basis path or None)."""
    paths = {}
    for name in names:
        entry = golden["maps"][name]
        wall = workdir / f"{name}.wall"
        wall.write_text(entry["wall"])
        basis = None
        if entry["basis"] is not None:
            basis = workdir / f"{name}.basis"
            basis.write_text(entry["basis"])
        paths[name] = (str(wall), None if basis is None else str(basis))
    return paths


def argv_for(kind: str, name: str, args: list[str], paths) -> list[str]:
    wall, basis = paths[name]
    return [kind, wall, *args] + (["--basis", basis] if basis else [])


def _coords(point) -> list[str]:
    return [str(x) for x in point]


def torus_cli_requests(golden: dict, seed: int, tiny: bool = False):
    """Six one-shot subcommands per genus-one map; the norm class from the seed."""
    rng = random.Random(f"torus-cli:{seed}")
    out = []
    box = range(-TORUS_NORM_BOX, TORUS_NORM_BOX + 1)
    for name in torus_maps(tiny):
        out += [
            ("coorientations", name, ["--classes"]),
            ("norm", name, [str(rng.choice(box)), str(rng.choice(box))]),
            ("ball", name, []),
            ("birkhoff", name, []),
            ("realize", name, _coords(golden["realize_target"][name])),
            ("svg", name, []),
        ]
    return out


def highgenus_cli_requests(golden: dict, seed: int, tiny: bool = False):
    """One-shot requests on the higher-genus maps; the query classes from the seed.

    norm, ball and birkhoff on the genus-3 maps; norm, verify and oracle on
    the genus-2 maps; and one realize on the genus-2 example.
    """
    rng = random.Random(f"highgenus-cli:{seed}")
    out = []
    for name in ([] if tiny else ["g3v6", "g3v8"]):
        out += [
            ("norm", name, _coords(rng.choice(golden["norm_candidates"][name]))),
            ("ball", name, []),
            ("birkhoff", name, []),
        ]
    for name in [GENUS2_EXAMPLE] + ([] if tiny else ["g2v4"]):
        out += [
            ("norm", name, _coords(rng.choice(golden["norm_candidates"][name]))),
            ("verify", name, ["--box", "1"]),
            ("oracle", name, _coords(rng.choice(golden["oracle_candidates"][name]))
             + ["--certificate"]),
        ]
    if not tiny:
        out.append(("realize", GENUS2_EXAMPLE,
                    _coords(golden["realize_target"][GENUS2_EXAMPLE])))
    return out


def cold_cap_probe(golden: dict):
    """coorientations with an enumeration cap below the item count, on G(3,3)."""
    name = TORUS_MAPS[0]
    cap = golden["eulerian_count"][name] // 2
    return ("coorientations", name, ["--max-enum", str(cap)])


def norm_sweep_queries(seed: int, tiny: bool = False):
    """Per torus map, classes drawn uniformly from the sweep box."""
    rng = random.Random(f"torus-sweep:{seed}")
    count = 100 if tiny else SWEEP_NORM_QUERIES
    box = SWEEP_NORM_BOX
    return {
        name: [(rng.randint(-box, box), rng.randint(-box, box)) for _ in range(count)]
        for name in torus_maps(tiny)
    }


def torus_maps(tiny: bool = False):
    """The genus-one maps; a tiny run keeps the smallest grid and the geodesic example."""
    return TORUS_MAPS[:1] + TORUS_MAPS[3:] if tiny else TORUS_MAPS


def expected_norm(points, a):
    """The seed's norm: max pairing over the class points, smallest maximizer as witness.

    ``points`` must be in ascending order, as ``DualBall.points`` stores them.
    """
    best = witness = None
    for p in points:
        value = sum(x * y for x, y in zip(p, a))
        if best is None or value > best:
            best, witness = value, p
    return best, tuple(witness)


def is_eulerian(wall_text: str, signs) -> bool:
    """Independent Eulerian test: the signs cancel around every double point.

    Reads the wall file directly; a tail dart contributes +sign and a head
    dart -sign to its vertex.
    """
    vertex_of = {}
    edges = []
    for line in wall_text.splitlines():
        tokens = line.split("#", 1)[0].replace(":", " ").split()
        if tokens[:1] == ["vertex"]:
            for dart in tokens[2:]:
                vertex_of[int(dart)] = int(tokens[1])
        elif tokens[:1] == ["edge"]:
            edges.append((int(tokens[2]), int(tokens[3])))
    if len(signs) != len(edges) or any(s not in (1, -1) for s in signs):
        return False
    sums = {}
    for (tail, head), s in zip(edges, signs):
        sums[vertex_of[tail]] = sums.get(vertex_of[tail], 0) + s
        sums[vertex_of[head]] = sums.get(vertex_of[head], 0) - s
    return not any(sums.values())


def run_cli(main, argv: list[str]) -> tuple[int, str, str]:
    """One CLI invocation in this process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stderr
    sys.stderr = err
    try:
        code = main(argv, out=out)
    finally:
        sys.stderr = saved
    return code, out.getvalue(), err.getvalue()


def answer_digest(code: int, stdout: str, stderr: str) -> str:
    return digest(f"{code}\0{stdout}\0{stderr}")


def signs_from_report(text: str) -> tuple[int, ...]:
    """Edge signs from the 'edge <j>: +|-' lines of a realize report."""
    signs = []
    for line in text.splitlines():
        if line.startswith("edge "):
            signs.append(1 if line.rstrip().endswith("+") else -1)
    return tuple(signs)
