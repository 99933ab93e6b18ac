"""Benchmark: the reference tier's python loops vs the native tier.

Two measurements, both best-of-``ROUNDS`` wall clock with rounds
interleaved across backends (same drift-cancelling idiom as bench_obs):

* **DP microbench** — ``optimal_box_profile`` over the twelve E1-quick
  cells (p ∈ {4, 8, 16, 32} × {scan, polluted-cycle, multiscale}), the
  headline win the kernel was built for.  The kernel cache is cleared
  before every solve so each one pays its own precompute, exactly as a
  cold experiment cell would.
* **E1 quick end-to-end** — ``run_named_experiment("e1")``, which mixes
  DP solves with RAND-GREEN box rollouts and the scheduling harness.

Backends are selected via the ``REPRO_KERNEL`` environment variable
(``reference`` / ``native``), the same escape hatch users have.  The
native tier (the default) compiles the bundled C source via ``cc``;
without a compiler it resolves to the reference tier and the report
records ``native_flavor: null``.  Results go to
``benchmarks/out/BENCH_kernel.json`` **and** to the repo-root
``BENCH_kernel.json``, which is committed per-PR (ROADMAP item 2c) so
the bench trajectory is diffable in review.  The run **fails** if a
compiled native flavor is slower than the reference loops on the DP
microbench, or if any measurement's outputs differ between backends
(the compiled tier is only valid if it is bit-identical).
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np

from repro.core.box import HeightLattice
from repro.experiments import run_named_experiment
from repro.green.offline import optimal_box_profile
from repro.paging.kernel import clear_kernel_cache, native_flavor
from repro.workloads.generators import multiscale_cycles, polluted_cycle, scan

ROUNDS = 3


def _best_of_interleaved(fns, rounds=ROUNDS):
    """Best-of timing with rounds interleaved across configurations.

    Interleaving cancels slow drift (thermal, frequency scaling, page
    cache warm-up) that would otherwise bias whichever configuration
    happened to run last.
    """
    best = [float("inf")] * len(fns)
    for _ in range(rounds):
        for i, fn in enumerate(fns):
            t0 = time.perf_counter()
            fn()
            best[i] = min(best[i], time.perf_counter() - t0)
    return best


def _dp_cells():
    """The twelve E1-quick DP cells (workloads generated exactly once)."""
    cells = []
    for p in (4, 8, 16, 32):
        k = 4 * p
        s = 2 * k
        n = 1200
        rng = np.random.default_rng(np.random.SeedSequence(entropy=0, spawn_key=(p,)))
        workloads = {
            "scan": scan(n),
            "polluted-cycle": polluted_cycle(n, max(2, k // 4), max(4, 2 * p)),
            "multiscale": multiscale_cycles(n, k, p, rng),
        }
        for name, seq in workloads.items():
            cells.append((f"p{p}/{name}", seq, HeightLattice(k, p), s))
    return cells


def bench_kernel_speedup(benchmark, out_dir):
    cells = _dp_cells()
    saved = os.environ.get("REPRO_KERNEL")

    def with_backend(backend, fn):
        os.environ["REPRO_KERNEL"] = backend
        try:
            return fn()
        finally:
            if saved is None:
                os.environ.pop("REPRO_KERNEL", None)
            else:
                os.environ["REPRO_KERNEL"] = saved

    def solve_dp():
        impacts = []
        for _, seq, lattice, s in cells:
            clear_kernel_cache()
            impacts.append(optimal_box_profile(seq, lattice, s).impact)
        return impacts

    def run_e1():
        clear_kernel_cache()
        rows, _ = run_named_experiment("e1", scale="quick", seed=0)
        return rows

    outputs = {}

    def timed(backend, fn, key):
        def run():
            outputs[(backend, key)] = with_backend(backend, fn)

        return run

    # warm imports, lattice caches, the page cache, and (for the native
    # tier) the one-off cc compile out of the measurement
    with_backend("reference", run_e1)
    flavor = with_backend("native", lambda: native_flavor())
    with_backend("native", solve_dp)

    dp_ref, dp_native, e1_ref, e1_native = _best_of_interleaved(
        [
            timed("reference", solve_dp, "dp"),
            timed("native", solve_dp, "dp"),
            timed("reference", run_e1, "e1"),
            timed("native", run_e1, "e1"),
        ]
    )
    benchmark.pedantic(timed("native", solve_dp, "dp"), rounds=1, iterations=1)

    assert outputs[("reference", "dp")] == outputs[("native", "dp")], (
        "DP impacts differ between tiers — the native tier is not bit-identical"
    )
    assert outputs[("reference", "e1")] == outputs[("native", "e1")], (
        "E1 result rows differ between tiers — the native tier is not bit-identical"
    )

    report = {
        "rounds": ROUNDS,
        "dp_cells": [name for name, *_ in cells],
        "native_flavor": flavor,
        "dp": {
            "reference_s": dp_ref,
            "native_s": dp_native,
            "speedup": dp_ref / dp_native,
        },
        "e1_quick": {
            "reference_s": e1_ref,
            "native_s": e1_native,
            "speedup": e1_ref / e1_native,
        },
        "outputs_identical": True,
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    payload = json.dumps(report, indent=2) + "\n"
    (out_dir / "BENCH_kernel.json").write_text(payload)
    # the committed, diffable copy (benchmarks/out/ is gitignored)
    (Path(__file__).resolve().parents[1] / "BENCH_kernel.json").write_text(payload)

    if flavor is not None:
        # without a C compiler the native tier *is* the reference, so
        # there is nothing to gate; with a compiled flavor it must win.
        assert dp_native <= dp_ref, (
            f"native kernel ({flavor}) is slower than the reference loops on "
            f"the offline DP (native={dp_native:.3f}s, reference={dp_ref:.3f}s)"
        )
