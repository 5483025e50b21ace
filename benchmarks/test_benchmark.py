"""The benchmark's own tests, on the tiny smoke configuration.

Run from the repository root:  python -m pytest -q benchmarks
"""
import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import run as bench_run  # noqa: E402
from stefanlab import uniform_density  # noqa: E402
from workloads import SMOKE, WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(capsys, workload, trace):
    code = bench_run.main(["--workload", workload, "--smoke", "--seconds", "0",
                           "--trace", str(trace)])
    lines = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_prints_every_metric_with_its_unit(capsys, workload, trace, key):
    lines, result = _run(capsys, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[key]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected
    for name, unit in expected.items():
        value = result["metrics"][name]["value"]
        assert isinstance(value, (int, float)) and value == value
        assert any(line.startswith(f"{workload} {name} = ") and line.endswith(f" {unit}")
                   for line in lines), name
    assert any(line.startswith(f"{workload} error_rate = 0.0") for line in lines)


def test_wrong_result_counts_as_failed():
    # the particle run on uniform[0, 2], checked against the band density's
    # envelopes and reference frontier
    band = WORKLOADS["particle_band"]
    wrong = dataclasses.replace(
        band, solve=lambda d, seed, scale: band.solve(uniform_density(0.0, 2.0), seed, scale))
    runs, attempted, failed = bench_run.measure(wrong, 2026, 0.0, SMOKE)
    assert attempted == 1 and failed == 1
    assert not runs[0]["ok"]


def test_fails_without_the_package(tmp_path):
    # a directory holding only the benchmark files: no src/, so no result
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", "particle_band",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120,
                          env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
