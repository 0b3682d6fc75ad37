import io
import shutil
import subprocess
import sys

import pytest

from wallnorm.cli import main
from wallnorm.coorient import Coorientation
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
    from wallnorm.cli import RunConfig, cmd_classes

    options = {"classes": False, "max_enum": None}
    config = RunConfig("classes", str(workdir / "G11.wall"), None, options)
    out = io.StringIO()
    assert cmd_classes(config, out) == 0
    assert "count=" in out.getvalue()
    assert config.options == {"classes": False, "max_enum": None}


def test_realize_method_flag(workdir):
    code, text = run_cli(
        ["realize", str(workdir / "G22.wall"), "0", "0",
         "--basis", str(workdir / "G22.basis"), "--method", "lookup"]
    )
    assert code == 0
    assert "method=enumeration-fallback" in text


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


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as info:
        main(["no-such-command"])
    assert info.value.code == 2


def test_wrong_coordinate_count_is_usage_error(workdir, capsys):
    code = main(["norm", str(workdir / "G22.wall"), "1", "2", "3"], out=io.StringIO())
    assert code == 2
    assert "usage error" in capsys.readouterr().err


def test_enum_cap_env(workdir, monkeypatch):
    monkeypatch.setenv("WALLNORM_MAX_ENUM", "3")
    # a fresh map avoids the enumeration cache keyed by digest
    (workdir / "G13.wall").write_text(grid_text(1, 3))
    code, _ = run_cli(["coorientations", str(workdir / "G13.wall")])
    assert code == 1


def test_module_entry_point(workdir):
    result = subprocess.run(
        [sys.executable, "-m", "wallnorm.cli", "info", str(workdir / "G11.wall")],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert "V=1 E=2 F=1 genus=1" in result.stdout


def test_console_script_installed(workdir):
    exe = shutil.which("wallnorm")
    if exe is None:
        pytest.skip("console script not on PATH")
    result = subprocess.run(
        [exe, "info", str(workdir / "G11.wall")], capture_output=True, text=True
    )
    assert result.returncode == 0
    assert "V=1" in result.stdout
