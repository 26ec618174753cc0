"""Smoke test of the benchmark: every workload at a tiny size.

Run from the root of the repository:

    python3 -m pytest -q perfbench/test_smoke.py

It checks that each run prints every metric named in BENCHMARK.json with
its unit, runs every output check, and ends with the JSON result; and
that without the package sources the benchmark fails without a result.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())

CHECKS = {
    "sim_t3": ["sim_t3.c10_gap"],
    "sim_known": ["sim_known.closed_form_rates"],
    "cv_grid": ["cv_grid.surface_equals_reference", "cv_grid.diagonal_m1_is_diagonal"],
    "leuk_fit": ["leuk_fit.regime_is_diagonal", "leuk_fit.model_matches_reference",
                 "leuk_fit.predictions_match_reference"],
}


def _run(cwd, workload, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5",
           "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def test_workloads_match_benchmark_file():
    assert [w["name"] for w in BENCH["workloads"]] == list(CHECKS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(CHECKS))
def test_tiny_run_prints_every_metric_and_check(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0

    expected = BENCH["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == \
        {name: v["unit"] for name, v in result["metrics"].items()}
    printed = {}
    for line in lines:
        if line.startswith("metric "):
            _, name, value, unit = line.split()
            printed[name] = (float(value), unit)
    for metric in expected:
        assert printed[metric["name"]][1] == metric["unit"]
    assert printed["failed_frac"] == (0.0, "ratio")

    ran = {line.split()[1]: line.split()[2] for line in lines if line.startswith("check ")}
    assert {name: "pass" for name in CHECKS[workload]} == ran
    env = json.loads(next(line[4:] for line in lines if line.startswith("env ")))
    for key in ("nproc", "blas", "numpy", "scipy", "l3", "inputs"):
        assert key in env


def test_without_sources_fails_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "sim_t3", 0)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
