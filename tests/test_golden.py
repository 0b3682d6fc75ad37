"""Golden report files: every subcommand's output, pinned byte for byte.

Each case runs the CLI in a scratch directory holding G(2,2) with its grid
basis, the four-geodesic example and the genus-2 example, and compares
stdout (and stderr for the failing cases) with ``tests/golden/<case>.out``
(``.err``).  Files the commands write (the ``coorientations --list``
directory, the ``birkhoff --json-report`` file) are pinned the same way.

Regenerate the files after an intended report change with

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import io
import os
import sys
from contextlib import redirect_stderr
from pathlib import Path

import pytest

from wallnorm import fixtures
from wallnorm.cli import main

GOLDEN = Path(__file__).parent / "golden"

G22 = ["G22.wall", "--basis", "G22.basis"]
FOUR = ["four.wall"]
GENUS2 = ["genus2.wall"]

# name -> (argv, exit code, {written path: golden path})
CASES: dict[str, tuple[list[str], int, dict[str, str]]] = {
    "g22_info": (["info", *G22], 0, {}),
    "g22_coorientations": (
        ["coorientations", *G22, "--classes", "--list", "coors"], 0, {"coors": "g22_coors"},
    ),
    "g22_classes": (["classes", *G22], 0, {}),
    "g22_ball": (["ball", *G22], 0, {}),
    "g22_ball_all": (["ball", *G22, "--all-classes"], 0, {}),
    "g22_ball_area": (["ball", *G22, "--area"], 0, {}),
    "g22_norm": (["norm", *G22, "4", "1"], 0, {}),
    "g22_oracle": (["oracle", *G22, "4", "1", "--certificate"], 0, {}),
    "g22_verify": (["verify", *G22, "--box", "2"], 0, {}),
    "g22_realize": (["realize", *G22, "0", "0"], 0, {}),
    "g22_realize_boundary": (["realize", *G22, "2", "2"], 0, {}),
    "g22_realize_lookup": (["realize", *G22, "0", "0", "--method", "lookup"], 0, {}),
    "g22_realize_outside": (["realize", *G22, "4", "4"], 1, {}),
    "g22_birkhoff": (
        ["birkhoff", *G22, "--json-report", "g22.json"], 0, {"g22.json": "g22_birkhoff.json"},
    ),
    "g22_svg": (["svg", *G22], 0, {}),
    "g22_fixture": (["fixture", "2", "2"], 0, {}),
    "four_info": (["info", *FOUR], 0, {}),
    "four_coorientations": (["coorientations", *FOUR, "--classes"], 0, {}),
    "four_ball": (["ball", *FOUR], 0, {}),
    "four_ball_all": (["ball", *FOUR, "--all-classes"], 0, {}),
    "four_ball_area": (["ball", *FOUR, "--area"], 0, {}),
    "four_norm": (["norm", *FOUR, "2", "-1"], 0, {}),
    "four_oracle": (["oracle", *FOUR, "2", "-1", "--certificate"], 0, {}),
    "four_verify": (["verify", *FOUR, "--box", "1"], 0, {}),
    "four_realize": (["realize", *FOUR, "-1", "1"], 0, {}),
    "four_realize_lookup": (["realize", *FOUR, "1", "-1", "--method", "lookup"], 0, {}),
    "four_birkhoff": (["birkhoff", *FOUR], 0, {}),
    "four_svg": (["svg", *FOUR], 0, {}),
    "genus2_info": (["info", *GENUS2], 0, {}),
    "genus2_coorientations": (["coorientations", *GENUS2, "--classes"], 0, {}),
    "genus2_ball": (["ball", *GENUS2], 0, {}),
    "genus2_ball_all": (["ball", *GENUS2, "--all-classes"], 0, {}),
    "genus2_norm": (["norm", *GENUS2, "1", "0", "-2", "1"], 0, {}),
    "genus2_oracle": (["oracle", *GENUS2, "1", "0", "0", "1", "--certificate"], 0, {}),
    "genus2_verify": (["verify", *GENUS2, "--box", "1"], 0, {}),
    "genus2_realize": (["realize", *GENUS2, "1", "1", "1", "1"], 0, {}),
    "genus2_realize_lookup": (
        ["realize", *GENUS2, "-1", "1", "-1", "-1", "--method", "lookup"], 0, {},
    ),
    "genus2_birkhoff": (["birkhoff", *GENUS2], 0, {}),
    "genus2_svg": (["svg", *GENUS2], 1, {}),
}


def write_inputs(directory: Path) -> None:
    (directory / "G22.wall").write_text(fixtures.grid_text(2, 2))
    (directory / "G22.basis").write_text(fixtures.grid_basis_text(2, 2))
    (directory / "four.wall").write_text(fixtures.four_geodesic_example().canonical_text)
    (directory / "genus2.wall").write_text(fixtures.genus2_example().canonical_text)


def run_case(name: str, directory: Path) -> tuple[int, str, str]:
    """Run one case with the working directory set to ``directory``."""
    argv = CASES[name][0]
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        with redirect_stderr(err):
            code = main(list(argv), out=out)
    finally:
        os.chdir(cwd)
    return code, out.getvalue(), err.getvalue()


def written_files(path: Path) -> dict[str, str]:
    """A written file, or every file of a written directory, by relative name."""
    if path.is_dir():
        return {p.name: p.read_text() for p in sorted(path.iterdir())}
    return {"": path.read_text()}


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name, tmp_path):
    write_inputs(tmp_path)
    _, expected_code, outputs = CASES[name]
    code, out, err = run_case(name, tmp_path)
    assert code == expected_code
    assert out == (GOLDEN / f"{name}.out").read_text()
    if expected_code:
        assert err == (GOLDEN / f"{name}.err").read_text()
    for written, golden in outputs.items():
        assert written_files(tmp_path / written) == written_files(GOLDEN / golden)


def regenerate() -> None:
    import shutil
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    for name in sorted(CASES):
        with tempfile.TemporaryDirectory() as scratch:
            directory = Path(scratch)
            write_inputs(directory)
            _, expected_code, outputs = CASES[name]
            code, out, err = run_case(name, directory)
            if code != expected_code:
                raise SystemExit(f"{name}: exit code {code}, expected {expected_code}\n{err}")
            (GOLDEN / f"{name}.out").write_text(out)
            if expected_code:
                (GOLDEN / f"{name}.err").write_text(err)
            for written, golden in outputs.items():
                target = GOLDEN / golden
                if target.is_dir():
                    shutil.rmtree(target)
                source = directory / written
                if source.is_dir():
                    shutil.copytree(source, target)
                else:
                    shutil.copyfile(source, target)
        print(f"wrote {name}", file=sys.stderr)


if __name__ == "__main__":
    regenerate()
