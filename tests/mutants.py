"""A table of deliberate faults in the program, and a runner that checks the tests catch each.

Each row names a file under ``src/wallnorm``, a text in it, the text that
replaces it, and the tests expected to fail on the result.  The runner
first runs every named test on an unchanged copy of ``src/``, where all
must pass.  Then, for each row, it copies ``src/`` to a temporary
directory, makes the one replacement there (the old text must occur in
the file exactly once) and runs the row's tests with ``PYTHONPATH`` on the
copy.  A row is caught when pytest reports failed tests (exit code 1).

The run exits 1 when a mutant survives, when an old text does not occur
exactly once, when a named test fails on the unchanged copy, or when pytest
ends any other way (a node id that names no test, a collection error).  So
a change that moves or rewrites a mutated line updates its row on purpose.

Run it from anywhere; it is not collected by pytest:

    python tests/mutants.py
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    file: str  # under src/wallnorm
    old: str
    new: str
    tests: tuple[str, ...]  # pytest node ids, relative to the repository root
    fault: str


_WARM_NORM = "tests/test_normball.py::test_warm_norm_equals_the_full_scan"
# the genus-one branch of normball.norm; the general branch repeats the tie lines
_G1_SCAN = """\
        for x, y, p, q in ball.pairs:
            value = x * a0 + y * a1
            if value < 0:  # -p maximizes; on a tie p, the smaller, stays
                value, p = -value, q
            if value > best or value == best and p < witness:
"""

MUTANTS = (
    Mutant(
        "normball.py", _G1_SCAN,
        _G1_SCAN.replace("if value < 0:", "if value <= 0:"),
        (_WARM_NORM,),
        "the warm genus-one norm gives a tie of p and -p (a = 0) to -p, the larger",
    ),
    Mutant(
        "normball.py", _G1_SCAN,
        _G1_SCAN.replace("value, p = -value, q", "value = -value"),
        (_WARM_NORM,),
        "the warm genus-one norm takes p as the witness where -p maximizes",
    ),
    Mutant(
        "normball.py", _G1_SCAN,
        _G1_SCAN.replace("if value > best or", "if value >= best or"),
        (_WARM_NORM,),
        "the warm genus-one norm gives a tie between two pairs to the later one",
    ),
    Mutant(
        "coorient.py",
        "if k0 * signs[e0] + k1 * signs[e1] + k2 * signs[e2] + k3 * signs[e3]:",
        "if k0 * signs[e0] - k1 * signs[e1] + k2 * signs[e2] + k3 * signs[e3]:",
        ("tests/test_coorient.py::test_incidence_sums_equal_the_per_dart_definition",),
        "is_eulerian flips the incidence sign of a vertex's second dart",
    ),
    Mutant(
        "normball.py",
        "vector = [v - (last[j] - first[j]) * c for v, c in zip(vector, columns[j])]",
        "vector = [v + (last[j] - first[j]) * c for v, c in zip(vector, columns[j])]",
        ("tests/test_normball.py::test_symmetric_ball_equals_the_unhalved_reference",),
        "the box scan adds a wrapped coordinate's span to the pairings instead of taking it off",
    ),
    Mutant(
        "normball.py", "        if c < 0:\n", "        if c <= 0:\n",
        ("tests/test_normball.py::test_genus_one_positions_equal_the_potential",),
        "a point on a side of the genus-one polygon reads as outside",
    ),
    Mutant(
        "normball.py", 'position = "boundary"', 'position = "interior"',
        ("tests/test_normball.py::test_genus_one_positions_equal_the_potential",),
        "a point on a side of the genus-one polygon reads as interior",
    ),
    Mutant(
        "normball.py", " and isinstance(a, (tuple, list)):", ":",
        ("tests/test_normball.py::test_warm_and_cold_norm_agree_on_every_input",),
        "the warm genus-one norm unpacks any iterable, so a bad generator is read twice",
    ),
    Mutant(
        "normball.py", "for d in ((1, 0), (0, 1))}", "for d in ((1, 0), (0, 1), (-1, 0), (0, -1))}",
        ("tests/test_normball.py::test_symmetry_halves_the_oracle_calls",),
        "the genus-one walk asks for the seed vertices in all four directions",
    ),
    Mutant(
        "normball.py", "key = max(p, tuple(-x for x in p))\n            if not alone",
        "key = p\n            if not alone",
        ("tests/test_normball.py::test_symmetry_halves_the_oracle_calls",),
        "the vertex test runs on p and on -p instead of once per pair",
    ),
    Mutant(
        "homology.py", "order[placed], order[k] = e, order[placed]",
        "order[placed], order[k] = order[placed], e",
        ("tests/test_homology.py::test_auto_basis_signatures_are_pinned",),
        "a contracted edge keeps its place instead of swapping with the first edge passed over",
    ),
    Mutant(
        "homology.py", "weights[c] += direction", "weights[c] -= direction",
        ("tests/test_homology.py::test_tree_cotree_basis_matches_smith_normal_form",),
        "the cotree path from the head double point is walked with flipped signs",
    ),
    Mutant(
        "surface_map.py", 'if not line.isascii() or "_" in line:', 'if "_" in line:',
        ("tests/test_surface_map.py::test_only_ascii_decimal_integers_are_read",),
        "a record line with a non-ASCII character is read",
    ),
    Mutant(
        "oracle.py", "(max(dist) - 2) * reach <= h", "(max(dist) - 2) * reach <= h + 1",
        ("tests/test_oracle.py::test_the_settle_bound_is_tight",),
        "the cover table settles one truncation early",
    ),
)


def _copy_src(where: Path) -> Path:
    src = where / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    return src


def _pytest(src: Path, tests: tuple[str, ...]) -> int:
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    done = subprocess.run(command, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    if done.returncode not in (0, 1):
        print(done.stdout)
    return done.returncode


def _imports_the_copy(src: Path) -> bool:
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run([sys.executable, "-c", "import wallnorm; print(wallnorm.__file__)"],
                          cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, check=True)
    return Path(done.stdout.strip()).resolve().is_relative_to(src.resolve())


def main() -> int:
    start = time.perf_counter()
    bad = 0
    with tempfile.TemporaryDirectory() as tmp:
        src = _copy_src(Path(tmp))
        if not _imports_the_copy(src):
            print("a copy of src/ on PYTHONPATH is not what the tests import")
            return 1
        named = tuple(dict.fromkeys(t for m in MUTANTS for t in m.tests))
        code = _pytest(src, named)
        if code:
            print(f"the named tests do not pass on the unchanged program (pytest exit {code})")
            return 1
    for row in MUTANTS:
        with tempfile.TemporaryDirectory() as tmp:
            src = _copy_src(Path(tmp))
            path = src / "wallnorm" / row.file
            text = path.read_text()
            found = text.count(row.old)
            if found != 1:
                print(f"STALE     {row.file}: the old text occurs {found} times: {row.fault}")
                bad += 1
                continue
            path.write_text(text.replace(row.old, row.new))
            began = time.perf_counter()
            code = _pytest(src, row.tests)
            verdict = {0: "SURVIVED", 1: "caught"}.get(code, f"ERROR {code}")
            bad += code != 1
            print(f"{verdict:9} {time.perf_counter() - began:5.1f} s  {row.file}: {row.fault}")
    print(f"{len(MUTANTS)} mutants, {bad} not caught, {time.perf_counter() - start:.1f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
