"""Fast self-check of the benchmark at tiny sizes.

    python3 -m pytest -q perfbench

Each workload runs once untraced and once traced with ``--tiny``; every
metric BENCHMARK.json names must be emitted with its unit, and every
answer check must pass on the program as it stands.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(cwd: Path, workload: str, trace: int, *extra: str):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), *extra],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_emits_every_metric_and_passes_its_checks(workload, trace):
    proc = run_bench(ROOT, workload, trace, "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = run_bench(tmp_path, "torus-cli", 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_answer_checks_reject_wrong_answers():
    golden = inputs.load_golden()
    wall = golden["maps"]["G33"]["wall"]
    signs = [1] * 18  # every strand of the grid G(3,3) cooriented one way
    assert inputs.is_eulerian(wall, signs)
    assert not inputs.is_eulerian(wall, [-signs[0]] + signs[1:])
    points = golden["classes"]["G33"]
    value, witness = inputs.expected_norm(points, (1, 0))
    assert value == max(p[0] for p in points) and list(witness) in points
