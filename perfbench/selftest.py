"""Self-tests of the benchmark: tiny deployments, a few epochs each.

Run from the repository root with::

    python3 -m pytest -q perfbench/selftest.py

Each workload runs on a 6 x 6 grid. The tests check that every metric
``BENCHMARK.json`` names is printed with its unit, that the oracle
passes, and that the seed changes the inputs but not the checks.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
TINY = ["--side", "6", "--seconds", "5", "--steps", "24"]


def bench(tmp_path, workload: str, seed: int, trace: int):
    """Run the benchmark; returns (result object, the lines before it)."""
    out = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--trace", str(trace),
         "--state-dir", str(tmp_path), *TINY],
        capture_output=True, text=True, timeout=170, cwd=ROOT)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def expected_units(trace: int) -> dict:
    group = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    return {metric["name"]: metric["unit"] for metric in group}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_with_unit_and_oracle_passes(tmp_path, workload,
                                                          trace):
    result, lines = bench(tmp_path, workload, 11, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 24
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == expected_units(trace)
    for name in units:
        assert any(line.split()[1:2] == [name] for line in lines), name
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed_changes_inputs_not_checks(tmp_path, workload):
    runs = {seed: bench(tmp_path, workload, seed, 0) for seed in (11, 12)}
    inputs = {seed: next(line.split()[1] for line in lines
                         if line.startswith("inputs "))
              for seed, (_, lines) in runs.items()}
    assert inputs[11] != inputs[12]
    for result, _ in runs.values():
        assert result["correct"] is True and result["failed"] == 0
    assert (set(runs[11][0]["metrics"]) == set(runs[12][0]["metrics"])
            == set(expected_units(0)))
    again, lines = bench(tmp_path, workload, 11, 0)
    assert again["correct"] is True  # the determinism guard held
    assert inputs[11] in " ".join(lines)


def test_unknown_workload_is_refused(tmp_path):
    out = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", "nope",
         "--state-dir", str(tmp_path)],
        capture_output=True, text=True, timeout=60, cwd=ROOT)
    assert out.returncode != 0
    assert out.stdout == ""


def test_refuses_without_the_program(tmp_path):
    """Run from a tree holding only the benchmark: no result, exit != 0."""
    bare = tmp_path / "bare"
    (bare / BENCH_DIR.name).mkdir(parents=True)
    (bare / "BENCHMARK.json").write_text(json.dumps(SPEC))
    for path in BENCH_DIR.glob("*.py"):
        (bare / BENCH_DIR.name / path.name).write_text(path.read_text())
    out = subprocess.run(
        [sys.executable, f"{BENCH_DIR.name}/run.py", "--workload", WORKLOADS[0],
         "--seed", "11", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=170, cwd=bare)
    assert out.returncode != 0
    assert out.stdout == ""
