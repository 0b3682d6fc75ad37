"""Write golden.json: every input the benchmark can draw and the program's answers.

Run from the repository root, on the commit the benchmark's reference
answers should come from:

    python3 perfbench/make_golden.py

Reports are produced in this process with warm caches; the benchmark
replays them one-shot with cold caches and compares digests, so a report
that depends on cache state shows up as a wrong answer there.  The one
request whose answer does depend on it, the enumeration-cap probe, is run
in a forked child so that its caches are cold.
"""

from __future__ import annotations

import json
import random
import sys
import tempfile
from itertools import product
from pathlib import Path

import inputs
from run import fork_call

ROOT = inputs.HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from wallnorm import (  # noqa: E402
    basis_from_file, classify, contains, dual_ball, enumerate_eulerian, fixtures, gamma_parity,
    homology_basis, parse_wall_system, realize,
)
from wallnorm.cli import main as cli_main  # noqa: E402
from wallnorm.errors import WallNormError  # noqa: E402


def torus_entries() -> dict:
    maps = {}
    for m, n in ((3, 3), (3, 4), (2, 7)):
        maps[f"G{m}{n}"] = {"wall": fixtures.grid_text(m, n),
                            "basis": fixtures.grid_basis_text(m, n)}
    maps["geo4"] = {"wall": fixtures.four_geodesic_example().canonical_text, "basis": None}
    return maps


def in_band(wmap, band: dict) -> bool:
    if (len(wmap.faces), wmap.genus) != (band["faces"], band["genus"]):
        return False
    basis = homology_basis(wmap)
    eulerian = enumerate_eulerian(wmap, basis)
    points = list(eulerian.classes)
    parity = gamma_parity(wmap, basis)
    box = [range(min(p[k] for p in points), max(p[k] for p in points) + 1)
           for k in range(basis.rank)]
    congruent = sum(
        1 for q in product(*box) if not any((x - y) % 2 for x, y in zip(q, parity)))
    return all(lo <= value <= hi for value, (lo, hi) in (
        (eulerian.count, band["eulerian"]), (len(points), band["classes"]),
        (congruent, band["points"])))


def first_in_band(name: str, band: dict):
    rng = random.Random(f"perfbench-map:{name}")
    while True:
        wmap = fixtures.random_wall_system(band["vertices"], rng)
        try:
            if in_band(wmap, band):
                return wmap
        except WallNormError:
            continue


def candidates(name: str, rank: int, radius: int, count: int):
    rng = random.Random(f"perfbench-candidates:{name}:{radius}")
    box = range(-radius, radius + 1)
    picked = []
    while len(picked) < count:
        a = tuple(rng.choice(box) for _ in range(rank))
        if any(a) and a not in picked:
            picked.append(a)
    return [list(a) for a in picked]


def main() -> None:
    golden = {"maps": torus_entries(), "reports": {}, "admissible": {}, "realize_target": {},
              "norm_candidates": {}, "oracle_candidates": {}, "classes": {},
              "contains": {}, "realized": {}, "eulerian_count": {}}
    golden["maps"][inputs.GENUS2_EXAMPLE] = {
        "wall": fixtures.genus2_example().canonical_text, "basis": None}
    for name, band in inputs.BANDS.items():
        golden["maps"][name] = {"wall": first_in_band(name, band).canonical_text, "basis": None}

    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as work:
        paths = inputs.write_maps(golden, golden["maps"], Path(work))
        record_all(golden, paths)
    inputs.GOLDEN_PATH.write_text(json.dumps(golden, sort_keys=True, separators=(",", ":")) + "\n")


def record_all(golden: dict, paths) -> None:
    reports = golden["reports"]

    def record(kind, name, args, cold=False):
        argv = inputs.argv_for(kind, name, args, paths)
        if cold:
            code, out, err = fork_call(lambda: inputs.run_cli(cli_main, argv))
        else:
            code, out, err = inputs.run_cli(cli_main, argv)
        reports[inputs.request_key(kind, name, args)] = inputs.answer_digest(code, out, err)
        return code

    # The enumeration-cap probe first, before this process enumerates its map.
    probe_map = inputs.TORUS_MAPS[0]
    probe_text = golden["maps"][probe_map]["wall"]
    golden["eulerian_count"][probe_map] = fork_call(
        lambda: enumerate_eulerian(parse_wall_system(probe_text)).count)
    kind, name, args = inputs.cold_cap_probe(golden)
    if record(kind, name, args, cold=True) != 1:
        raise SystemExit("the cold enumeration-cap probe must fail loudly")

    for name, entry in golden["maps"].items():
        wmap = parse_wall_system(entry["wall"])
        basis = homology_basis(wmap)
        if entry["basis"] is not None:
            basis = basis_from_file(wmap, entry["basis"])
        eul = enumerate_eulerian(wmap, basis)
        ball = dual_ball(wmap, basis)
        torus = name in inputs.TORUS_MAPS
        genus2 = wmap.genus == 2
        if torus or name == inputs.GENUS2_EXAMPLE:
            report = classify(wmap, basis, ball)
            golden["admissible"][name] = [
                list(e.point) for e in report.entries if e.status != "outside"]
            # one-shot realize target: the first interior point, else the first boundary one
            golden["realize_target"][name] = min(
                (e.status != "interior", list(e.point)) for e in report.entries
                if e.status != "outside")[1]
        if torus:
            r = inputs.TORUS_NORM_BOX
            golden["norm_candidates"][name] = [
                list(a) for a in product(range(-r, r + 1), repeat=2)]
            golden["eulerian_count"][name] = eul.count
            golden["classes"][name] = [list(p) for p in ball.points]
            lo_hi = ball.bounding_box()
            ring = [range(lo - 1, hi + 2) for lo, hi in lo_hi]
            golden["contains"][name] = [[list(p), contains(ball, p)] for p in product(*ring)]
            golden["realized"][name] = {}
            for kind in ("coorientations", "ball", "birkhoff", "svg"):
                record(kind, name, ["--classes"] if kind == "coorientations" else [])
        else:
            golden["norm_candidates"][name] = candidates(
                name, basis.rank, 2, inputs.HIGH_GENUS_CANDIDATES)
        for a in golden["norm_candidates"][name]:
            record("norm", name, [str(x) for x in a])
        if not torus and not genus2:
            record("ball", name, [])
            record("birkhoff", name, [])
        if genus2:
            golden["oracle_candidates"][name] = candidates(name, basis.rank, 1, 4)
            record("verify", name, ["--box", "1"])
            for a in golden["oracle_candidates"][name]:
                record("oracle", name, [str(x) for x in a] + ["--certificate"])
        for n in golden["admissible"].get(name, []):
            if n == golden["realize_target"][name]:
                record("realize", name, [str(x) for x in n])
            if torus:
                coor = realize(wmap, basis, n).coorientation
                golden["realized"][name][",".join(map(str, n))] = inputs.digest(coor.to_text())
        print(f"map {name}: done", flush=True)


if __name__ == "__main__":
    main()
