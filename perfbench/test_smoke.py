"""Smoke tests for the benchmark command, on the few-second ``smoke`` size.

Run from the root of a checkout with ``python -m pytest perfbench``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--size", "smoke", "--seconds", "0.5", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def assert_metrics(metrics: dict, declared: list) -> None:
    assert sorted(metrics) == sorted(m["name"] for m in declared)
    for m in declared:
        assert metrics[m["name"]]["unit"] == m["unit"]
        assert isinstance(metrics[m["name"]]["value"], float)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_end_to_end_metric_with_its_unit(workload):
    out = result(bench("--workload", workload, "--seed", "0", "--trace", "0"))
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    assert_metrics(out["metrics"], SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in out["metrics"].values())


def test_every_per_layer_metric_with_its_unit():
    out = result(bench("--workload", "stream-skewed", "--seed", "1", "--trace", "1"))
    assert out["correct"] and out["failed"] == 0
    assert_metrics(out["metrics"], SPEC["per_layer"])
    assert out["metrics"]["kernel.box.calls"]["value"] > 0


def test_wrong_expected_value_counts_as_failure(tmp_path):
    expected = json.loads((ROOT / "perfbench" / "expected.json").read_text())
    expected["smoke"]["stream-skewed"]["0"]["det-par"]["makespan"] += 1
    path = tmp_path / "expected.json"
    path.write_text(json.dumps(expected))
    out = result(bench("--workload", "stream-skewed", "--seed", "0", "--trace", "0", "--expected", str(path)))
    assert out["failed"] > 0 and not out["correct"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = bench("--workload", "hunt", "--seed", "0", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
