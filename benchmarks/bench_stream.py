"""Streamed million-request benchmark: the event engine vs the timestep oracle.

The ISSUE-9 headline numbers: a 10⁶-request, p=1024 run streamed
chunk-by-chunk from a trace store must complete in bounded memory
(tracemalloc peak < 512 MB) and beat the retained per-instant timestep
reference by >= 5x, byte-identically.

The workload is the Albers–Hellwig *parallel schedules* shape (the
``parallel-schedules`` search family): 1023 short head jobs plus one
long, cache-thrashing tail.  That imbalance is precisely where
event-driven simulation earns its keep — once the heads drain, the
timestep loop still rescans all 1024 processors at every instant of the
tail while the heap pays O(log p) per request — and where the paper's
makespan story is interesting at scale.

Two cells are recorded:

* ``global-lru`` (the gate): the shared-cache timestep simulator, event
  loop (compiled on the native tier) vs ``REPRO_KERNEL=reference`` full
  rescan.  Ratio asserted >= 5.
* ``det-par`` (gated >= 4): the box algorithm on the same stream under
  the shipping config — ``REPRO_KERNEL=native``, so the compiled DET-PAR
  loop — vs the python event loop serving every box by the per-request
  dict-LRU (``REPRO_KERNEL=reference``), with the same tracemalloc
  bound.  The native flavor is
  recorded in the report.

The report lands in ``benchmarks/out/BENCH_stream.json`` **and** the
committed repo-root ``BENCH_stream.json`` (same idiom as
``bench_scaling.py``), so the streamed-scale trajectory is diffable in
review.
"""

from __future__ import annotations

import json
import os
import time
import tracemalloc
from pathlib import Path

import numpy as np

from repro.core import DetPar
from repro.paging.kernel import clear_kernel_cache, native_flavor
from repro.parallel.streaming import open_streaming
from repro.parallel.timestep import GlobalLRU
from repro.traces.store import write_store
from repro.workloads import ParallelWorkload, cyclic

P = 1024
HEAD_REQUESTS = 684
HEAD_PAGES = 24
TAIL_REQUESTS = 300_000
TAIL_PAGES = 4096
CHUNK_ROWS = 4096
MISS_COST = 8
GLOBAL_CACHE = 4096
DETPAR_CACHE = 32768
EVENT_ROUNDS = 2  # reference cells run once (the slow side)
MEMORY_BUDGET_MB = 512
GATE_RATIO = 5.0
DETPAR_GATE_RATIO = 4.0


def _workload() -> ParallelWorkload:
    """Deterministic parallel-schedules shape: short heads, one long tail."""
    head = [cyclic(HEAD_REQUESTS, HEAD_PAGES) + 32 * i for i in range(P - 1)]
    tail = cyclic(TAIL_REQUESTS, TAIL_PAGES) + 32 * P
    return ParallelWorkload(
        sequences=[np.asarray(s, dtype=np.int64) for s in ([tail] + head)],
        name="stream-bench",
        allow_shared=True,
    )


def _timed(fn):
    t0 = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - t0


def _with_env(overrides, fn):
    """Call ``fn`` with environment ``overrides``, restoring them after."""
    saved = {key: os.environ.get(key) for key in overrides}
    os.environ.update(overrides)
    try:
        return fn()
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value


def _reference(fn):
    """Time ``fn`` under ``REPRO_KERNEL=reference``, the oracle tier."""
    return _with_env({"REPRO_KERNEL": "reference"}, lambda: _timed(fn))


def bench_stream_million(benchmark, out_dir, tmp_path):
    wl = _workload()
    store = write_store(tmp_path / "stream-bench.store", wl, chunk_rows=CHUNK_ROWS)
    total = wl.total_requests

    # ---------------- gate cell: global-lru, heap vs rescan ----------- #
    def event_run():
        return GlobalLRU(GLOBAL_CACHE, MISS_COST).run(open_streaming(store))

    event_res, warm = _timed(event_run)  # warm imports/allocator
    event_s = warm
    for _ in range(EVENT_ROUNDS - 1):
        _, again = _timed(event_run)
        event_s = min(event_s, again)
    benchmark.pedantic(event_run, rounds=1, iterations=1)

    ref_res, ref_s = _reference(event_run)
    assert event_res.completion_times.tolist() == ref_res.completion_times.tolist()
    assert event_res.meta == ref_res.meta

    # bounded memory: the streamed event run never holds more than the
    # in-flight chunks plus the heap, far under the in-memory workload
    tracemalloc.start()
    traced = event_run()
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert traced.makespan == event_res.makespan
    peak_mb = peak / 1e6

    # ---------------- gated cell: det-par on the same stream ---------- #
    # Shipping config: the native kernel tier.
    # The kernel cache is cleared between flips so each run constructs its
    # kernels under its own REPRO_KERNEL (backends are captured at kernel
    # construction time).
    detpar_env = {"REPRO_KERNEL": "native"}

    def detpar_run():
        clear_kernel_cache()
        return DetPar(DETPAR_CACHE, MISS_COST).run(open_streaming(store))

    det_flavor = _with_env(detpar_env, native_flavor)

    det_res, det_event_s = _with_env(detpar_env, lambda: _timed(detpar_run))
    for _ in range(EVENT_ROUNDS - 1):
        _, again = _with_env(detpar_env, lambda: _timed(detpar_run))
        det_event_s = min(det_event_s, again)
    det_ref, det_ref_s = _reference(detpar_run)
    assert det_res.completion_times.tolist() == det_ref.completion_times.tolist()
    assert det_res.makespan == det_ref.makespan
    assert len(det_res.trace) == len(det_ref.trace)

    tracemalloc.start()
    det_traced = _with_env(detpar_env, detpar_run)
    _, det_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert det_traced.makespan == det_res.makespan
    det_peak_mb = det_peak / 1e6

    report = {
        "workload": {
            "p": P,
            "total_requests": total,
            "head_requests": HEAD_REQUESTS,
            "tail_requests": TAIL_REQUESTS,
            "chunk_rows": CHUNK_ROWS,
            "miss_cost": MISS_COST,
            "shape": "parallel-schedules (Albers-Hellwig): short heads + one long tail",
        },
        "cells": {
            "global-lru": {
                "cache_size": GLOBAL_CACHE,
                "event_s": event_s,
                "reference_s": ref_s,
                "speedup": ref_s / event_s,
                "event_requests_per_s": total / event_s,
                "makespan": int(event_res.makespan),
            },
            "det-par": {
                "cache_size": DETPAR_CACHE,
                "kernel": "native",
                "native_flavor": det_flavor,
                "event_s": det_event_s,
                "reference_s": det_ref_s,
                "speedup": det_ref_s / det_event_s,
                "event_requests_per_s": total / det_event_s,
                "makespan": int(det_res.makespan),
                "boxes": len(det_res.trace),
            },
        },
        "memory": {
            "tracemalloc_peak_mb": peak_mb,
            "detpar_tracemalloc_peak_mb": det_peak_mb,
            "budget_mb": MEMORY_BUDGET_MB,
        },
        "gates": [
            {
                "cell": "global-lru",
                "min_speedup": GATE_RATIO,
                "measured_speedup": ref_s / event_s,
            },
            {
                "cell": "det-par",
                "min_speedup": DETPAR_GATE_RATIO,
                "measured_speedup": det_ref_s / det_event_s,
            },
        ],
    }

    out_dir.mkdir(parents=True, exist_ok=True)
    payload = json.dumps(report, indent=2) + "\n"
    (out_dir / "BENCH_stream.json").write_text(payload)
    # the committed, diffable copy (benchmarks/out/ is gitignored)
    (Path(__file__).resolve().parents[1] / "BENCH_stream.json").write_text(payload)

    assert peak_mb < MEMORY_BUDGET_MB, f"streamed run peaked at {peak_mb:.0f} MB"
    assert det_peak_mb < MEMORY_BUDGET_MB, f"streamed det-par run peaked at {det_peak_mb:.0f} MB"
    assert ref_s / event_s >= GATE_RATIO, (
        f"event engine only {ref_s / event_s:.1f}x faster than the timestep reference"
    )
    assert det_ref_s / det_event_s >= DETPAR_GATE_RATIO, (
        f"det-par event backend (kernel flavor {det_flavor}) is only "
        f"{det_ref_s / det_event_s:.1f}x faster than the per-instant reference "
        f"(event={det_event_s:.2f}s, reference={det_ref_s:.2f}s)"
    )
