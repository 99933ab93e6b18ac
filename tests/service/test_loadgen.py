"""Load generator: percentile math, scenario shapes, a real measured run."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

from repro.client.protocol import ExperimentRequest, RunRequest, WorkloadSpec
from repro.service import loadgen
from repro.service.loadgen import percentile, run_load


class TestPercentile:
    def test_empty_is_zero(self):
        assert percentile([], 50) == 0.0

    def test_nearest_rank(self):
        values = [float(v) for v in range(1, 101)]
        assert percentile(values, 50) == 50.0
        assert percentile(values, 99) == 99.0
        assert percentile(values, 100) == 100.0

    def test_single_value(self):
        assert percentile([7.0], 50) == 7.0
        assert percentile([7.0], 99) == 7.0


class TestScenarios:
    def test_duplicate_cells_share_a_content_key_across_clients(self):
        a = loadgen._scenario_request("duplicate-cells", "c0", 0, "e1", "quick")
        b = loadgen._scenario_request("duplicate-cells", "c1", 3, "e1", "quick")
        assert isinstance(a, RunRequest)
        assert a.content_key() == b.content_key()

    def test_unique_cells_differ_and_are_reproducible(self):
        a1 = loadgen._scenario_request("unique-cells", "c0", 0, "e1", "quick")
        a2 = loadgen._scenario_request("unique-cells", "c0", 0, "e1", "quick")
        b = loadgen._scenario_request("unique-cells", "c1", 0, "e1", "quick")
        assert a1.content_key() == a2.content_key()  # stable across processes
        assert a1.content_key() != b.content_key()

    def test_experiment_scenario(self):
        req = loadgen._scenario_request("experiment", "c0", 0, "e1", "quick")
        assert isinstance(req, ExperimentRequest) and req.name == "e1"

    def test_unknown_scenario_raises(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            loadgen._scenario_request("nope", "c0", 0, "e1", "quick")


class TestRunLoad:
    @pytest.fixture(autouse=True)
    def _small_cell(self, monkeypatch):
        """Shrink the benchmark cell so the measured run stays fast."""
        monkeypatch.setattr(
            loadgen,
            "DUPLICATE_CELL",
            dict(
                algorithms=("det-par",),
                cache_size=32,
                miss_cost=8,
                xi=2,
                seeds=(0,),
                workload=WorkloadSpec(p=4, n_requests=120, k=16),
            ),
        )

    def test_duplicate_scenario_measures_cross_client_hit_rate(self, live_service, tmp_path):
        out = tmp_path / "BENCH_service.json"
        report = run_load(
            live_service.url, clients=3, requests_per_client=2, scenario="duplicate-cells", out=out
        )
        assert report["completed"] == 6 and report["errors"] == 0
        assert report["latency_ms"]["p50"] > 0
        assert report["latency_ms"]["p99"] >= report["latency_ms"]["p50"]
        cache = report["cache"]
        # 6 identical submissions, one computation: every later request
        # was coalesced into the live job or fully served by the cache
        assert cache["computed"] == cache["cells"] - cache["hits"]
        assert cache["hits"] + cache["coalesced_jobs"] > 0
        assert cache["hit_rate"] >= 0.5 or cache["coalesced_jobs"] >= 3
        on_disk = json.loads(out.read_text())
        assert on_disk["scenario"] == "duplicate-cells"
        assert on_disk["latency_ms"] == report["latency_ms"]

    def test_unique_scenario_has_no_cross_client_hits(self, live_service):
        report = run_load(
            live_service.url, clients=2, requests_per_client=1, scenario="unique-cells"
        )
        assert report["completed"] == 2 and report["errors"] == 0
        assert report["cache"]["hits"] == 0
        assert report["cache"]["computed"] == report["cache"]["cells"] > 0


class TestMainEntry:
    def test_argument_validation(self, capsys):
        with pytest.raises(SystemExit):
            loadgen.main(["--url", "http://x", "--clients", "0"])

    def test_unreachable_server_is_a_clean_failure(self):
        assert loadgen.main(["--url", "http://127.0.0.1:9", "--timeout", "0.5"]) == 2

    def test_module_runs_once_as_a_script(self):
        # the package must not import the module it runs, or runpy warns
        # that it is already in sys.modules and executes it a second time
        src = str(Path(repro.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "repro.service.loadgen", "--help"],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert "usage" in proc.stdout
