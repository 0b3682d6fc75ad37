import contextlib
import io
import os
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wallnorm.cli import main
from wallnorm.coorient import Coorientation, enumerate_eulerian
from wallnorm.fixtures import grid_basis_text, grid_text
from wallnorm.surface_map import parse_wall_system


@pytest.fixture()
def workdir(tmp_path):
    (tmp_path / "G11.wall").write_text(grid_text(1, 1))
    (tmp_path / "G11.basis").write_text(grid_basis_text(1, 1))
    (tmp_path / "G22.wall").write_text(grid_text(2, 2))
    (tmp_path / "G22.basis").write_text(grid_basis_text(2, 2))
    return tmp_path


def run_cli(args):
    out = io.StringIO()
    code = main(args, out=out)
    return code, out.getvalue()


def test_info_g11(workdir):
    code, text = run_cli(["info", str(workdir / "G11.wall"), "--basis", str(workdir / "G11.basis")])
    assert code == 0
    assert "V=1 E=2 F=1 genus=1 curves=2 parity=(1,1)" in text


def test_norm_g22(workdir):
    code, text = run_cli(
        ["norm", str(workdir / "G22.wall"), "4", "1", "--basis", str(workdir / "G22.basis")]
    )
    assert code == 0
    assert "x = 10" in text


def test_birkhoff_g11(workdir):
    code, text = run_cli(["birkhoff", str(workdir / "G11.wall")])
    assert code == 0
    assert "sections: 0" in text


def test_birkhoff_g22_records(workdir):
    code, text = run_cli(
        ["birkhoff", str(workdir / "G22.wall"), "--basis", str(workdir / "G22.basis")]
    )
    assert code == 0
    assert "point=0,0 status=interior chi=-8 boundary=8 genus=1" in text
    assert text.count("status=boundary") == 8
    assert "sections: 1" in text


def test_birkhoff_json_report(workdir):
    out_file = workdir / "report.json"
    code, _ = run_cli(
        ["birkhoff", str(workdir / "G22.wall"), "--json-report", str(out_file)]
    )
    assert code == 0
    import json

    payload = json.loads(out_file.read_text())
    assert payload["interior"] == 1
    assert payload["section_exists"] is True


def test_ball_outputs(workdir):
    code, text = run_cli(
        ["ball", str(workdir / "G22.wall"), "--basis", str(workdir / "G22.basis")]
    )
    assert code == 0
    assert "extreme 2 2" in text and "extreme -2 -2" in text
    assert "count 4" in text and "facets 4" in text
    code, text = run_cli(
        ["ball", str(workdir / "G22.wall"), "--area", "--basis", str(workdir / "G22.basis")]
    )
    assert "area 16" in text
    code, text = run_cli(
        ["ball", str(workdir / "G22.wall"), "--all-classes", "--basis", str(workdir / "G22.basis")]
    )
    assert text.count("point ") == 9


def test_coorientations_count_and_classes(workdir):
    code, text = run_cli(["coorientations", str(workdir / "G22.wall")])
    assert code == 0
    assert "eulerian 18" in text
    code, text = run_cli(
        ["classes", str(workdir / "G22.wall"), "--basis", str(workdir / "G22.basis")]
    )
    assert "class 0 0 count=6" in text
    assert "class 2 2 count=1" in text


def test_coorientations_list(workdir):
    out_dir = workdir / "coors"
    code, text = run_cli(
        ["coorientations", str(workdir / "G11.wall"), "--list", str(out_dir)]
    )
    assert code == 0
    files = sorted(out_dir.iterdir())
    assert len(files) == 4
    wmap = parse_wall_system((workdir / "G11.wall").read_text())
    for f in files:
        Coorientation.from_text(f.read_text(), wmap.edge_count)


def test_oracle_and_verify(workdir):
    code, text = run_cli(
        ["oracle", str(workdir / "G22.wall"), "4", "1",
         "--basis", str(workdir / "G22.basis"), "--certificate"]
    )
    assert code == 0
    assert "x_min = 10" in text
    assert "cycle class=" in text

    code, text = run_cli(["verify", str(workdir / "G11.wall"), "--box", "2"])
    assert code == 0
    assert "discrepancies: 0" in text


def test_verify_reports_a_mismatch(workdir, monkeypatch):
    from wallnorm import normball
    from wallnorm.fixtures import grid_map
    from wallnorm.homology import homology_basis
    from wallnorm.oracle import verify_min_equals_max

    true_norm = normball.norm

    def off_by_one_at_1_0(wmap, basis, a):
        result = true_norm(wmap, basis, a)
        if tuple(a) != (1, 0):
            return result
        return normball.NormValue(result.value + 1, result.witness)

    monkeypatch.setattr(normball, "norm", off_by_one_at_1_0)
    wmap = grid_map(1, 1)
    report = verify_min_equals_max(wmap, homology_basis(wmap), 1)
    assert report.ok is False
    assert report.discrepancies == (((1, 0), 1, 2),)
    code, text = run_cli(["verify", str(workdir / "G11.wall"), "--box", "1"])
    assert code == 1
    assert text.splitlines()[-2:] == ["discrepancies: 1", "MISMATCH 1 0 oracle=1 norm=2"]


def test_realize_writes_coorientation(workdir):
    out_file = workdir / "nu.coor"
    code, text = run_cli(
        ["realize", str(workdir / "G22.wall"), "0", "0",
         "--basis", str(workdir / "G22.basis"), "--out", str(out_file)]
    )
    assert code == 0
    assert "realized 0 0" in text
    wmap = parse_wall_system((workdir / "G22.wall").read_text())
    coor = Coorientation.from_text(out_file.read_text(), wmap.edge_count)
    from wallnorm import is_eulerian

    assert is_eulerian(wmap, coor)


def test_classes_leaves_the_config_unchanged(workdir):
    # classes runs coorientations on a copy of its namespace, with --classes set
    from wallnorm.cli import _load, _read, cmd_classes

    args = _read(["classes", str(workdir / "G11.wall")])
    given = dict(vars(args))
    out = io.StringIO()
    assert cmd_classes(args, *_load(args), out) == 0
    assert "count=" in out.getvalue()
    assert vars(args) == given == {"subcommand": "classes", "input": str(workdir / "G11.wall"),
                                   "basis": None}


def test_realize_method_flag(workdir):
    code, text = run_cli(
        ["realize", str(workdir / "G22.wall"), "0", "0",
         "--basis", str(workdir / "G22.basis"), "--method", "lookup"]
    )
    assert code == 0
    assert "method=enumeration-fallback" in text


def test_dropped_options_are_usage_errors(workdir):
    for args in (
        ["coorientations", str(workdir / "G22.wall"), "--count"],
        ["realize", str(workdir / "G22.wall"), "0", "0", "--method", "eikonal"],
    ):
        with pytest.raises(SystemExit) as info:
            main(args, out=io.StringIO())
        assert info.value.code == 2


def test_svg_refuses_genus_two_before_building_the_ball(workdir, monkeypatch, capsys):
    from wallnorm import cli
    from wallnorm.fixtures import genus2_example

    def refuse(*args):
        raise AssertionError("svg built the ball of a genus-two map")

    monkeypatch.setattr(cli, "dual_ball", refuse)
    monkeypatch.setattr(cli, "classify", refuse)
    (workdir / "genus2.wall").write_text(genus2_example().canonical_text)
    assert run_cli(["svg", str(workdir / "genus2.wall")]) == (1, "")
    assert "WrongGenus: SVG rendering needs 2 coordinates, got 4" in capsys.readouterr().err


def test_ball_area_refuses_genus_two_before_building_the_ball(workdir, monkeypatch, capsys):
    from wallnorm import cli
    from wallnorm.fixtures import genus2_example

    def refuse(*args):
        raise AssertionError("ball --area built the ball of a genus-two map")

    monkeypatch.setattr(cli, "dual_ball", refuse)
    (workdir / "genus2.wall").write_text(genus2_example().canonical_text)
    code, text = run_cli(["ball", str(workdir / "genus2.wall"), "--area"])
    assert code == 1
    assert [line.split()[:2] for line in text.splitlines()] == [["#", "map"], ["#", "basis"]]
    assert capsys.readouterr().err == (
        "error: WallNormError: --area is only available for genus-one maps\n")


def test_svg_output(workdir):
    out_file = workdir / "ball.svg"
    code, _ = run_cli(
        ["svg", str(workdir / "G22.wall"), "--basis", str(workdir / "G22.basis"),
         "--out", str(out_file)]
    )
    assert code == 0
    text = out_file.read_text()
    assert text.startswith("<svg ")
    assert text.count('fill="#2b6cb0"') == 1   # one interior point
    assert text.count('fill="#c53030"') == 8   # eight boundary points
    assert "<polygon" in text


def test_svg_deterministic(workdir):
    a = run_cli(["svg", str(workdir / "G22.wall"), "--basis", str(workdir / "G22.basis")])
    b = run_cli(["svg", str(workdir / "G22.wall"), "--basis", str(workdir / "G22.basis")])
    assert a == b


def test_fixture_refuses_an_empty_grid(capsys):
    out = io.StringIO()
    assert main(["fixture", "0", "3"], out=out) == 1
    assert out.getvalue() == ""
    assert capsys.readouterr().err == (
        "error: WallNormError: grid parameters must be at least 1\n")


def test_fixture_round_trip(tmp_path):
    out_file = tmp_path / "G23.wall"
    basis_file = tmp_path / "G23.basis"
    code, _ = run_cli(
        ["fixture", "2", "3", "--out", str(out_file), "--basis-out", str(basis_file)]
    )
    assert code == 0
    assert out_file.read_text() == grid_text(2, 3)
    assert basis_file.read_text() == grid_basis_text(2, 3)
    code, text = run_cli(["info", str(out_file), "--basis", str(basis_file)])
    assert "V=6 E=12 F=6 genus=1 curves=5 parity=(1,0)" in text


def test_reports_are_deterministic(workdir):
    for args in (
        ["info", str(workdir / "G22.wall")],
        ["ball", str(workdir / "G22.wall")],
        ["birkhoff", str(workdir / "G22.wall")],
        ["classes", str(workdir / "G22.wall")],
    ):
        assert run_cli(args) == run_cli(args)


def test_domain_error_exit_code(workdir, tmp_path):
    bad = tmp_path / "bad.wall"
    bad.write_text("vertices 1\nvertex 0: 0 1 2\nedge 0: 0 2\nedge 1: 1 3\n")
    code, _ = run_cli(["info", str(bad)])
    assert code == 1


def test_domain_error_names_the_error(workdir, tmp_path, capsys):
    bad = tmp_path / "bad.wall"
    bad.write_text("vertices 1\nvertex 0: 0 1 2\nedge 0: 0 2\nedge 1: 1 3\n")
    code = main(["info", str(bad)], out=io.StringIO())
    assert code == 1
    assert "BadDegree" in capsys.readouterr().err


@pytest.mark.parametrize("text, message", [
    ("vertices\n", "line 1: expected one vertex count"),
    ("vertices 1 2\n", "line 1: expected one vertex count"),
    ("vertices 1\nvertex 0 1: 0 1 2 3\n", "line 2: expected one vertex index"),
])
def test_miscounted_integers_are_domain_errors(tmp_path, capsys, text, message):
    bad = tmp_path / "bad.wall"
    bad.write_text(text)
    assert run_cli(["info", str(bad)]) == (1, "")
    assert capsys.readouterr().err.startswith(f"error: MalformedInput: {message}, got ")


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as info:
        main(["no-such-command"])
    assert info.value.code == 2


def test_wrong_coordinate_count_is_usage_error(workdir, capsys):
    code = main(["norm", str(workdir / "G22.wall"), "1", "2", "3"], out=io.StringIO())
    assert code == 2
    assert "usage error" in capsys.readouterr().err


def test_wrong_coordinate_count_is_refused_before_the_ball(workdir, monkeypatch, capsys):
    # genus 2, under a cap the enumeration would exceed: the count is checked first
    from wallnorm import homology_basis, norm
    from wallnorm.fixtures import genus2_example

    wall = workdir / "genus2.wall"
    wall.write_text(genus2_example().canonical_text)
    monkeypatch.setenv("WALLNORM_MAX_ENUM", "3")
    wmap = parse_wall_system(wall.read_text())
    basis = homology_basis(wmap)
    with pytest.raises(ValueError, match="class must have 4 coordinates"):
        norm(wmap, basis, (1, 2, 3))
    assert basis._memo == {}
    capsys.readouterr()
    assert main(["norm", str(wall), "1", "2", "3"], out=io.StringIO()) == 2
    assert capsys.readouterr().err == "usage error: class must have 4 coordinates\n"


@pytest.mark.parametrize("args, message", [
    (["norm", "1", "2", "3"], "class must have 2 coordinates"),
    (["oracle", "1", "2", "3", "--certificate"], "class must have 2 coordinates"),
    (["realize", "0", "0", "0"], "target class must have 2 coordinates"),
])
def test_wrong_coordinate_count_leaves_stdout_empty(workdir, capsys, args, message):
    argv = [args[0], str(workdir / "G22.wall"), *args[1:]]
    out = io.StringIO()
    assert main(argv, out=out) == 2
    assert out.getvalue() == ""
    assert capsys.readouterr().err == f"usage error: {message}\n"


def test_oracle_radius_below_the_class_box_is_a_usage_error(workdir, capsys):
    out = io.StringIO()
    assert main(["oracle", str(workdir / "G22.wall"), "3", "0", "--radius", "2"], out=out) == 2
    assert out.getvalue() == ""
    assert capsys.readouterr().err == (
        "usage error: truncation radius is smaller than the class box\n")


@pytest.mark.parametrize("args, option", [
    (["verify", "--box", "0"], "--box"),
    (["oracle", "4", "1", "--radius", "-1"], "--radius"),
    (["coorientations", "--max-enum", "0"], "--max-enum"),
])
def test_non_positive_bounds_are_usage_errors(workdir, capsys, args, option):
    argv = [args[0], str(workdir / "G22.wall"), *args[1:]]
    out = io.StringIO()
    assert main(argv, out=out) == 2
    assert out.getvalue() == ""
    assert capsys.readouterr().err == f"usage error: {option} must be positive\n"


def test_enum_cap_env(workdir, monkeypatch):
    monkeypatch.setenv("WALLNORM_MAX_ENUM", "3")
    # each CLI run parses its own map, so the enumeration starts cold
    (workdir / "G13.wall").write_text(grid_text(1, 3))
    code, _ = run_cli(["coorientations", str(workdir / "G13.wall")])
    assert code == 1


@pytest.mark.parametrize("value", ["abc", "-3", "0"])
def test_malformed_enum_cap_env_is_usage_error(workdir, monkeypatch, capsys, value):
    # refused like --max-enum: before the header, naming the variable
    monkeypatch.setenv("WALLNORM_MAX_ENUM", value)
    message = f"WALLNORM_MAX_ENUM must be a positive integer, not {value!r}"
    with pytest.raises(ValueError, match=message):
        enumerate_eulerian(parse_wall_system(grid_text(1, 1)))
    capsys.readouterr()
    for args in (["coorientations", "--classes"], ["norm", "4", "1"]):
        out = io.StringIO()
        assert main([args[0], str(workdir / "G22.wall"), *args[1:]], out=out) == 2
        assert out.getvalue() == ""
        assert capsys.readouterr().err == f"usage error: {message}\n"


@pytest.mark.parametrize("name", ["G13", "genus2"])
def test_dual_ball_answers_under_the_enum_cap(workdir, monkeypatch, capsys, name):
    # no ball lists a coorientation (G13 has 16 Eulerian coorientations,
    # genus2 10), so ball, norm and birkhoff answer under the cap, cold or
    # warm; only coorientations, which reports them, is refused
    from wallnorm import dual_ball, homology_basis, norm
    from wallnorm.fixtures import genus2_example

    wall = workdir / f"{name}.wall"
    wall.write_text(grid_text(1, 3) if name == "G13" else genus2_example().canonical_text)
    wmap = parse_wall_system(wall.read_text())
    a = (1,) + (0,) * (2 * wmap.genus - 1)
    requests = [["ball"], ["birkhoff"], ["norm", *map(str, a)]]
    reports = [run_cli([args[0], str(wall), *args[1:]]) for args in requests]
    basis = homology_basis(wmap)
    expected = norm(wmap, basis, a)
    ball = dual_ball(wmap, basis)

    monkeypatch.setenv("WALLNORM_MAX_ENUM", "3")
    cold = homology_basis(wmap)
    assert norm(wmap, cold, a) == expected
    assert cold._memo == {}  # a cold norm keeps no ball
    assert dual_ball(wmap, cold) == ball
    assert norm(wmap, cold, a) == expected  # warm: reads the kept ball
    assert dual_ball(wmap, basis) is ball
    assert [run_cli([args[0], str(wall), *args[1:]]) for args in requests] == reports
    assert all(code == 0 for code, _ in reports)
    capsys.readouterr()
    assert run_cli(["coorientations", str(wall)])[0] == 1
    assert "exceeded the cap of 3" in capsys.readouterr().err


def test_module_entry_point(workdir):
    result = subprocess.run(
        [sys.executable, "-m", "wallnorm.cli", "info", str(workdir / "G11.wall")],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert "V=1 E=2 F=1 genus=1" in result.stdout
    # argv=None reads sys.argv[1:] on the per-subcommand parse too
    args = ["norm", str(workdir / "G22.wall"), "4", "1", "--basis", str(workdir / "G22.basis")]
    result = subprocess.run(
        [sys.executable, "-m", "wallnorm.cli", *args], capture_output=True, text=True
    )
    assert result.returncode == 0
    assert result.stdout == run_cli(args)[1]


def test_requests_start_without_numpy(workdir):
    # numpy is imported where array work runs: it costs most of `import wallnorm`
    from wallnorm import fixtures

    g22 = str(workdir / "G22.wall")
    genus2 = workdir / "genus2.wall"
    genus2.write_text(fixtures.genus2_example().canonical_text)
    lean = [
        ["coorientations", g22, "--classes"], ["norm", g22, "4", "1"], ["ball", g22],
        ["birkhoff", g22], ["realize", g22, "0", "0"], ["svg", g22],
        ["coorientations", g22, "--list", str(workdir / "coors")],
        ["realize", g22, "0", "0", "--method", "lookup"],
        ["norm", str(genus2), "1", "0", "0", "0"], ["birkhoff", str(genus2)],
        ["realize", str(genus2), "1", "-1", "-1", "-1"],
        ["realize", str(genus2), "1", "-1", "-1", "-1", "--method", "lookup"],
    ]
    script = textwrap.dedent(f"""
        import io, sys
        import wallnorm, wallnorm.cli
        print("import", 0, "numpy" in sys.modules, "argparse" in sys.modules)
        refused = [["svg", {str(genus2)!r}], ["ball", {str(genus2)!r}, "--area"]]
        for argv in {lean!r} + refused + [["oracle", {g22!r}, "1", "0"]]:
            code = wallnorm.cli.main(argv, out=io.StringIO())
            print(argv[0], code, "numpy" in sys.modules, "argparse" in sys.modules)
    """)
    src = str(Path(fixtures.__file__).resolve().parent.parent)
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                            env=dict(os.environ, PYTHONPATH=src))
    assert result.returncode == 0, result.stderr
    # and a well-formed request is read without importing argparse
    expected = [["import", "0", "False", "False"]] + [
        [argv[0], "0", "False", "False"] for argv in lean]
    assert [line.split() for line in result.stdout.splitlines()] == expected + [
        ["svg", "1", "False", "False"], ["ball", "1", "False", "False"],
        ["oracle", "0", "True", "False"]]


# one valid argv per subcommand; the parity test derives the bad ones from it
VALID_ARGV = {
    "info": ["info", "m.wall"],
    "coorientations": ["coorientations", "m.wall", "--classes", "--list", "d",
                       "--max-enum", "5", "--basis", "b"],
    "classes": ["classes", "m.wall"],
    "ball": ["ball", "m.wall", "--area"],
    "norm": ["norm", "m.wall", "4", "-1", "--basis", "b"],
    "oracle": ["oracle", "m.wall", "1", "2", "--radius", "3", "--certificate"],
    "verify": ["verify", "m.wall", "--box", "2"],
    "realize": ["realize", "m.wall", "0", "0", "--method", "lookup", "--out", "o"],
    "birkhoff": ["birkhoff", "m.wall", "--json-report", "r.json"],
    "svg": ["svg", "m.wall", "--out", "b.svg"],
    "fixture": ["fixture", "2", "3", "--basis-out", "b"],
}

# argvs that only the full parser can answer exactly
FULL_PARSER_ARGV = [
    [], ["-h"], ["--basis", "b", "norm", "m.wall", "1"], ["no-such-command", "m.wall"],
    *([*argv, "--zzz"] for argv in VALID_ARGV.values()),
    ["info", "m.wall", "extra"],
]

PARSER_ARGV = [
    *VALID_ARGV.values(),
    *([name, "-h"] for name in VALID_ARGV),
    *([name] for name in VALID_ARGV),  # missing positional
    ["norm", "m.wall", "a"],
    ["norm", "m.wall", "--basis"],
    ["realize", "m.wall", "0", "0", "--method", "bad"],
    ["ball", "m.wall", "--area", "--extreme"],
    ["verify", "m.wall"],
    ["oracle", "m.wall", "1", "2", "--radius"],
    ["oracle", "m.wall", "1", "2", "--cert"],
    ["fixture", "2", "x"],
]


def _parse_outcome(parse, argv):
    """The namespace a parse gives, or its exit code and printed text."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            return vars(parse(argv))
    except SystemExit as exc:
        return exc.code, out.getvalue(), err.getvalue()


@contextlib.contextmanager
def _parsers_built():
    """A list that gains one entry per argparse.ArgumentParser constructed inside."""
    import argparse

    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    with mock.patch.object(argparse.ArgumentParser, "__init__", counting_init):
        yield built


def _reader_matches_the_full_parser(argv):
    """Assert that ``cli._parse`` answers argv as the full parser does, and whether it built one."""
    from wallnorm import cli

    expected = _parse_outcome(lambda a: cli.build_parser().parse_args(a), argv)
    with _parsers_built() as built:
        assert _parse_outcome(cli._parse, argv) == expected
    return bool(built)


@pytest.mark.parametrize("argv", PARSER_ARGV + FULL_PARSER_ARGV, ids=" ".join)
def test_subcommand_parse_matches_the_full_parser(argv, monkeypatch):
    # a well-formed request builds no argparse parser at all; every other
    # argv, help and errors included, is the full parser's to answer
    monkeypatch.setenv("COLUMNS", "80")
    assert _reader_matches_the_full_parser(argv) == (argv not in VALID_ARGV.values())


_VALUE_WORDS = st.one_of(  # two thirds integers, as most positionals are
    st.integers(-12, 12).map(str),
    st.integers(0, 99).map(str),
    st.sampled_from(["m.wall", "b", "auto", "lookup", "bad", "1.5", "-2.5", "-0", "007", ""]),
)


@st.composite
def _argvs(draw):
    """About the reader's form for a drawn subcommand, with stray words put anywhere."""
    from wallnorm import cli

    name = draw(st.sampled_from(list(cli._SUBCOMMANDS)))
    spec = cli._spec(cli._SUBCOMMANDS[name][2])  # the arguments as the reader reads them
    option = st.sampled_from(sorted(spec.options))
    stray = st.one_of(
        _VALUE_WORDS, option, st.sampled_from(["-h", "--help", "--", "-", "-x", "--zzz", name]),
        option.flatmap(lambda o: st.integers(3, len(o) - 1).map(lambda k: o[:k])),  # abbreviated
        st.tuples(option, _VALUE_WORDS).map("=".join),
    )
    count = len(spec.positionals)
    size = draw(st.sampled_from([count, count, count - 1, count + 1]))
    argv = [name, *(draw(_VALUE_WORDS) for _ in range(size))]
    for flag in draw(st.lists(option, max_size=4, unique=True)):
        argv += [flag] if spec.options[flag][3] else [flag, draw(_VALUE_WORDS)]
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        argv.insert(draw(st.integers(0, len(argv))), draw(stray))
    return argv


@settings(derandomize=True, deadline=None, max_examples=300)
@given(argv=_argvs())
def test_reader_parity_with_the_full_parser(argv):
    from wallnorm import cli

    with mock.patch.dict(os.environ, {"COLUMNS": "80"}):
        built = _reader_matches_the_full_parser(argv)
    # an argv the reader accepts constructs no argparse parser; any other falls back
    assert built == (cli._read(argv) is None)


@pytest.mark.parametrize("arguments", [
    [("--n", {"action": "count"})],
    [("--n", {"nargs": "?"})],
    [("xs", {"nargs": "*"})],
    [("x", {"choices": ("a", "b")})],
    [("--x", {"metavar": "X"})],
    [("xs", {"nargs": "+"}), ("y", {})],
    [(("--a", {"action": "store_true"}), ("--b", {"action": "store_const", "const": 1}))],
], ids=str)
def test_reader_refuses_what_it_cannot_read(arguments):
    # argparse takes each of these; the reader refuses its table rather than misread an argv
    from wallnorm import cli

    with pytest.raises(TypeError, match="cannot read|unexpected keyword"):
        cli._spec(cli._map(*arguments))


def test_requests_skip_the_full_parser(workdir, monkeypatch, capsys):
    from wallnorm import cli

    def refuse():
        raise AssertionError("the full parser was built")

    monkeypatch.setattr(cli, "build_parser", refuse)
    args = ["norm", str(workdir / "G22.wall"), "4", "1", "--basis", str(workdir / "G22.basis")]
    code, text = run_cli(args)
    assert code == 0 and "x = 10" in text
    with pytest.raises(AssertionError, match="full parser"):
        run_cli([*args[:2], "1", "2", "--zzz"])
    monkeypatch.undo()
    capsys.readouterr()
    with pytest.raises(SystemExit) as info:
        run_cli([*args[:2], "1", "2", "--zzz"])
    assert info.value.code == 2
    assert "wallnorm: error: unrecognized arguments: --zzz" in capsys.readouterr().err


def test_console_script_installed(workdir):
    exe = shutil.which("wallnorm")
    if exe is None:
        pytest.skip("console script not on PATH")
    result = subprocess.run(
        [exe, "info", str(workdir / "G11.wall")], capture_output=True, text=True
    )
    assert result.returncode == 0
    assert "V=1" in result.stdout


def _definitions(parser):
    """Each subcommand of a parser: name, help line, its actions and its exclusive groups."""
    import argparse

    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    helps = {a.dest: a.help for a in sub._choices_actions}
    return [
        (name, helps[name],
         [(a.option_strings, a.dest, a.nargs, a.default, a.required, a.choices, a.help,
           getattr(a.type, "__name__", None))
          for a in p._actions if not isinstance(a, argparse._HelpAction)],
         [[a.dest for a in g._group_actions] for g in p._mutually_exclusive_groups])
        for name, p in sub.choices.items()
    ]


# recorded from the parser as it stood before the subcommand table was rewritten
_MAP = [
    ([], "input", None, None, True, None, "wall-system file", None),
    (["--basis"], "basis", None, None, False, None,
     "basis file (defaults to the computed basis)", None),
]
_OUT = "output file (stdout otherwise)"
CLI_DEFINITIONS = [
    ("info", "V, E, F, genus, curves, parity", _MAP, []),
    ("coorientations", "enumerate Eulerian coorientations", [
        *_MAP,
        (["--classes"], "classes", 0, False, False, None, "also print the class multiset", None),
        (["--list"], "list_dir", None, None, False, None,
         "write one coorientation file per item", None),
        (["--max-enum"], "max_enum", None, None, False, None, "enumeration cap", "int"),
    ], []),
    ("classes", "Eulerian class multiset", _MAP, []),
    ("ball", "dual unit ball", [
        *_MAP,
        (["--extreme"], "extreme", 0, False, False, None, "extreme points (default)", None),
        (["--all-classes"], "all_classes", 0, False, False, None, "all class points", None),
        (["--area"], "area", 0, False, False, None, "exact area (genus one)", None),
    ], [["extreme", "all_classes", "area"]]),
    ("norm", "intersection norm of an integer class", [
        *_MAP,
        ([], "coords", "+", None, True, None, "class coordinates a1 .. a2g", "int"),
    ], []),
    ("oracle", "brute-force minimum with certificate", [
        *_MAP,
        ([], "coords", "+", None, True, None, None, "int"),
        (["--radius"], "radius", None, None, False, None, "cover truncation radius", "int"),
        (["--certificate"], "certificate", 0, False, False, None, None, None),
    ], []),
    ("verify", "oracle vs max formula over a box", [
        *_MAP,
        (["--box"], "box", None, None, True, None, "coordinate box radius", "int"),
    ], []),
    ("realize", "realize a class as a coorientation", [
        *_MAP,
        ([], "coords", "+", None, True, None, None, "int"),
        (["--out"], "out", None, None, False, None, "write the coorientation file here", None),
        (["--method"], "method", None, "auto", False, ("auto", "lookup"), None, None),
    ], []),
    ("birkhoff", "classify Birkhoff cross sections", [
        *_MAP,
        (["--json-report"], "json_report", None, None, False, None,
         "also write a JSON report", None),
    ], []),
    ("svg", "render the genus-one dual ball", [
        *_MAP,
        (["--out"], "out", None, None, False, None, _OUT, None),
    ], []),
    ("fixture", "emit a torus grid wall system G(m,n)", [
        ([], "m", None, None, True, None, "number of horizontal circles", "int"),
        ([], "n", None, None, True, None, "number of vertical circles", "int"),
        (["--out"], "out", None, None, False, None, _OUT, None),
        (["--basis-out"], "basis_out", None, None, False, None,
         "also write the grid basis file", None),
    ], []),
]


def test_cli_definitions_are_pinned():
    # the parity tests compare the reader with a parser built from the same
    # table; this pins the table itself: names, order, arguments, help lines
    from wallnorm import cli

    assert _definitions(cli.build_parser()) == CLI_DEFINITIONS
