"""Chaos coverage for the event-driven and streamed simulation paths.

The fault machinery (deterministic SIGINT, killed pool workers, resume
from checkpoint) predates the event scheduler; these tests pin that the
default event backend — including workloads served chunk-by-chunk from
a trace store — recovers byte-identically to an uninterrupted run, and
that a resumed run replays to the same table the timestep reference
produces.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.cli import main
from repro.exec import (
    ExecutionEngine,
    ExecutionPolicy,
    RunCheckpoint,
    WorkUnit,
    inject_faults,
)
from repro.paging.kernel import kernel_backend
from repro.parallel.events import sim_backend
from repro.parallel.streaming import open_streaming
from repro.traces.store import write_store
from repro.workloads import make_parallel_workload

pytestmark = pytest.mark.chaos


def strip_noise(text):
    return [l for l in text.splitlines() if not l.startswith("[telemetry]") and " rows in " not in l]


@pytest.mark.skipif(
    kernel_backend() != "native",
    reason="every run here takes the reference loops (no C compiler, or REPRO_KERNEL=reference)",
)
def test_chaos_runs_exercise_the_event_backend():
    # the guard that gives this module meaning: unless a test opts into
    # REPRO_KERNEL=reference, every fault below lands on the event
    # scheduler, not the retained timestep loop
    assert sim_backend() == "event"


# --------------------------------------------------------------------- #
# SIGINT mid-sweep -> repro resume, on event-driven parallel-run units
# --------------------------------------------------------------------- #
def test_interrupt_resume_event_sweep_byte_identical(tmp_path, capsys):
    # ground truth: a clean run of the parallel-run sweep (E3 drives the
    # event scheduler through RAND-PAR cells at four values of p)
    clean_dir = tmp_path / "clean"
    rc = main(["e3", "--out", str(clean_dir / "e3.md"),
               "--cache-dir", str(clean_dir / "cache"),
               "--runs-dir", str(clean_dir / "runs")])
    assert rc == 0
    capsys.readouterr()

    with inject_faults("interrupt:rand-par/p=8:1"):
        rc = main(["e3", "--run-id", "ev", "--out", str(tmp_path / "resumed.md"),
                   "--cache-dir", str(tmp_path / "cache"),
                   "--runs-dir", str(tmp_path / "runs")])
    assert rc == 130
    capsys.readouterr()
    assert RunCheckpoint.load("ev", root=tmp_path / "runs").manifest.status == "interrupted"

    rc = main(["resume", "ev", "--runs-dir", str(tmp_path / "runs")])
    assert rc == 0
    capsys.readouterr()
    assert RunCheckpoint.load("ev", root=tmp_path / "runs").manifest.status == "complete"
    assert strip_noise((tmp_path / "resumed.md").read_text()) == strip_noise(
        (clean_dir / "e3.md").read_text()
    )


def test_resumed_event_table_matches_timestep_reference(tmp_path, capsys, monkeypatch):
    # differential-under-chaos: an interrupted-then-resumed event run
    # must land on the very table the timestep oracle writes in one piece
    ref_dir = tmp_path / "ref"
    monkeypatch.setenv("REPRO_KERNEL", "reference")
    rc = main(["e3", "--out", str(ref_dir / "e3.md"),
               "--cache-dir", str(ref_dir / "cache"),
               "--runs-dir", str(ref_dir / "runs")])
    assert rc == 0
    monkeypatch.delenv("REPRO_KERNEL")
    capsys.readouterr()

    with inject_faults("interrupt:rand-par/p=16:1"):
        rc = main(["e3", "--run-id", "dvr", "--out", str(tmp_path / "event.md"),
                   "--cache-dir", str(tmp_path / "cache"),
                   "--runs-dir", str(tmp_path / "runs")])
    assert rc == 130
    capsys.readouterr()
    assert main(["resume", "dvr", "--runs-dir", str(tmp_path / "runs")]) == 0
    capsys.readouterr()
    assert strip_noise((tmp_path / "event.md").read_text()) == strip_noise(
        (ref_dir / "e3.md").read_text()
    )


# --------------------------------------------------------------------- #
# killed worker mid-chunk: streamed units on a 2-worker pool
# --------------------------------------------------------------------- #
def _streamed_units(store):
    # StreamingWorkload pickles as its store path, so each pool worker
    # reopens the store and serves its own chunk cursor
    wl = open_streaming(store)
    units = []
    for algorithm in ("det-par", "rand-par", "global-lru"):
        for seed in (0, 1):
            units.append(
                WorkUnit(
                    "parallel-run",
                    {"workload": wl, "algorithm": algorithm, "cache_size": 64,
                     "miss_cost": 8, "seed": seed},
                    label=f"stream-chaos/{algorithm}/seed={seed}",
                )
            )
    return units


def test_killed_worker_mid_chunk_recovers_byte_identical(tmp_path):
    wl = make_parallel_workload(p=4, n_requests=2000, k=32, rng=np.random.default_rng(3))
    store = write_store(tmp_path / "chaos.trc", wl, chunk_rows=128)
    units = _streamed_units(store)
    clean = ExecutionEngine(jobs=1).run(units)

    # os._exit(86) takes the worker down while its streamed run is in
    # flight; the engine rebuilds the pool and resubmits the lost units
    with inject_faults("kill:stream-chaos/rand-par/seed=1:1"):
        values = ExecutionEngine(jobs=2, policy=ExecutionPolicy(retries=1, backoff_s=0.01)).run(
            units
        )
    # per-cell pickles (a whole-list dump memoizes shared references,
    # which the pool round-trip legitimately breaks)
    for want, got in zip(clean, values):
        assert pickle.dumps(got) == pickle.dumps(want)


def test_crashed_streamed_unit_retries_byte_identical(tmp_path):
    wl = make_parallel_workload(p=3, n_requests=1500, k=24, rng=np.random.default_rng(7))
    store = write_store(tmp_path / "flaky.trc", wl, chunk_rows=64)
    units = _streamed_units(store)
    clean = ExecutionEngine(jobs=1).run(units)

    with inject_faults("flaky:stream-chaos/det-par/seed=0:1"):
        values = ExecutionEngine(jobs=1, policy=ExecutionPolicy(retries=1, backoff_s=0.01)).run(
            units
        )
    for want, got in zip(clean, values):
        assert pickle.dumps(got) == pickle.dumps(want)
